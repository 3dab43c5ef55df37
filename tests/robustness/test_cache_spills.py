"""Evaluation-cache spills: one codec, and a malformed spill fails loudly.

A spill written by :meth:`EvaluationCache.save` loads back to equal
evaluations and re-saves to the same bytes.  A spill whose entries were
damaged (a key dropped, a value retyped, an entry replaced by a
non-mapping, an unknown key added) raises
:class:`~repro.errors.DesignSpaceError` naming the file, never a bare
``KeyError``/``TypeError``/``ValueError``, and merges nothing.
"""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.bayesopt.cache import EvaluationCache, config_key
from repro.bayesopt.results import Evaluation
from repro.distrib.worker import UnitResult
from repro.errors import DesignSpaceError

#: Stand-ins for a value of the wrong type.
JUNK = ["x", "", None, [], ["x"], {}, {"x": 1}, True, 1.5, -1]

values = st.one_of(st.integers(-5, 5), st.sampled_from(["relu", "sign", "a b"]),
                   st.floats(-1e3, 1e3, allow_nan=False), st.booleans())
evaluations = st.builds(
    Evaluation,
    config=st.dictionaries(st.sampled_from(["layers", "width", "lr", "act"]),
                           values, min_size=1),
    objective=st.one_of(st.floats(-1e6, 1e6, allow_nan=False),
                        st.sampled_from([-math.inf, 0.0])),
    feasible=st.booleans(),
    metrics=st.dictionaries(st.sampled_from(["cus", "mus", "latency_ns"]),
                            st.floats(0, 1e4, allow_nan=False)),
)


def spill(tmp_path, evaluation_list):
    cache = EvaluationCache(path=str(tmp_path / "spill.json"))
    for evaluation in evaluation_list:
        cache.put(evaluation.config, evaluation)
    return cache.save()


@given(evaluation_list=st.lists(evaluations, min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_spill_round_trips_to_equal_evaluations_and_bytes(tmp_path_factory,
                                                          evaluation_list):
    tmp_path = tmp_path_factory.mktemp("spill")
    path = spill(tmp_path, evaluation_list)
    with open(path, "rb") as handle:
        first = handle.read()
    loaded = EvaluationCache()
    loaded.load(path)
    latest = {config_key(e.config): e for e in evaluation_list}
    for evaluation in latest.values():
        assert loaded.get(evaluation.config) == evaluation
    again = loaded.save(str(tmp_path / "again.json"))
    with open(again, "rb") as handle:
        assert handle.read() == first


def _mutations(entry):
    """Every one-step damage to one spill entry."""
    for key in ("config", "objective", "feasible"):
        yield {k: v for k, v in entry.items() if k != key}
    for key in entry:
        for junk in JUNK:
            yield dict(entry, **{key: junk})
    yield dict(entry, extra=1)
    yield from JUNK


def _valid(entry) -> bool:
    if not isinstance(entry, dict) or set(entry) - {"config", "objective",
                                                    "feasible", "metrics"}:
        return False
    return (isinstance(entry.get("config"), dict)
            and type(entry.get("objective")) in (int, float)
            and isinstance(entry.get("feasible"), bool)
            and isinstance(entry.get("metrics", {}), dict))


@given(evaluation_list=st.lists(evaluations, min_size=1, max_size=3),
       target=st.integers(0, 2), choice=st.integers(0, 10**6))
@settings(max_examples=120, deadline=None)
def test_damaged_spill_entry_raises_a_named_error(tmp_path_factory,
                                                  evaluation_list, target,
                                                  choice):
    tmp_path = tmp_path_factory.mktemp("damaged")
    path = spill(tmp_path, evaluation_list)
    with open(path) as handle:
        doc = json.load(handle)
    index = target % len(doc["entries"])
    options = list(_mutations(doc["entries"][index]))
    doc["entries"][index] = options[choice % len(options)]
    with open(path, "w") as handle:
        json.dump(doc, handle)
    cache = EvaluationCache()
    if _valid(doc["entries"][index]):
        assert cache.load(path) == len(doc["entries"])
        return
    with pytest.raises(DesignSpaceError, match=f"entries\\[{index}\\]") as info:
        cache.load(path)
    assert path in str(info.value)
    assert len(cache) == 0


@pytest.mark.parametrize("entry, field", [
    ({"config": {"a": 1}, "feasible": True}, "objective"),
    ({"config": {"a": 1}, "objective": "x", "feasible": True}, "objective"),
    (["not", "a", "mapping"], "mapping"),
])
def test_the_three_reported_spill_faults_are_named(tmp_path, entry, field):
    path = str(tmp_path / "spill.json")
    with open(path, "w") as handle:
        json.dump({"format": "homunculus-evaluation-cache", "version": 1,
                   "entries": [entry]}, handle)
    with pytest.raises(DesignSpaceError, match=field) as info:
        EvaluationCache().load(path)
    assert path in str(info.value)


def test_shard_result_history_uses_the_same_codec():
    evaluation = Evaluation({"a": 1}, 0.5, True, {"cus": 3.0})
    unit = UnitResult(0, "m", 0, "dnn", 0, history=[evaluation])
    assert UnitResult.from_dict(unit.to_dict()).history == [evaluation]
    doc = unit.to_dict()
    doc["history"][0]["objective"] = "x"
    with pytest.raises(DesignSpaceError, match=r"history\[0\]\.objective"):
        UnitResult.from_dict(doc)
