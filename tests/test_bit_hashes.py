"""The rules of tests/bit_hashes.py, on hand-made tables and records: equal
tables pass, each changed or one-sided case is named, and the hash reads
every bit of a result except its timers."""

from dataclasses import replace

import numpy as np

from bit_hashes import compare, record_hash
from sofsyn.driver import RunResult

BASE = {"a": "00", "b": "11", "c": "22"}


def test_equal_tables_pass():
    assert compare(BASE, dict(BASE)) == []


def test_each_changed_case_is_named():
    assert compare(BASE, {**BASE, "a": "01", "c": "23"}) == ["a", "c"]


def test_a_case_one_table_lacks_is_named():
    current = {k: v for k, v in BASE.items() if k != "b"}
    assert compare(BASE, {**current, "d": "33"}) == ["b", "d"]


RESULT = RunResult(best_alpha=np.array([0.1, -2.0]), best_fitness=-1.0, best_objective=1.0,
                   feasible=True, global_evals=12, local_evals=30, wall_time=0.5, history=())


def test_hash_ignores_wall_time():
    assert record_hash(RESULT) == record_hash(replace(RESULT, wall_time=9.0))


def test_hash_reads_the_last_bit_of_best_alpha_and_every_other_field():
    nudged = np.nextafter(RESULT.best_alpha, np.inf)
    for change in ({"best_alpha": nudged}, {"best_fitness": np.nextafter(-1.0, 0.0)},
                   {"local_evals": 31}, {"feasible": False}):
        assert record_hash(replace(RESULT, **change)) != record_hash(RESULT)
