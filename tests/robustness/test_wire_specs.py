"""Malformed wire specs fail with a named error, never a bare exception.

Each property starts from a valid ``to_dict()`` document, applies one
mutation anywhere in it — drop a key, retype a value, add a key — and
parses the result.  The only exceptions allowed are the package's named
errors.  Valid documents must still round-trip exactly.
"""

import copy
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.alchemy.model import SUPPORTED_METRICS
from repro.cli import main
from repro.distrib import DatasetRef, ModelEntry, RunSpec
from repro.errors import BackendError, FabricError, SpecificationError
from repro.fabric import FabricSpec

EXAMPLE_SPEC = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "fabric_pod.json"
)

#: Stand-ins for a value of the wrong type or range.
JUNK = ["abc", "", -1, 0, 7, 1.5, True, None, [], ["x"], {}, {"x": 1}]

RUN_ERRORS = (SpecificationError,)
FABRIC_ERRORS = (FabricError, SpecificationError, BackendError)


# --------------------------------------------------------------------------- #
# valid documents
# --------------------------------------------------------------------------- #
dataset_refs = st.one_of(
    st.builds(
        lambda app, seed: DatasetRef.for_app(app, seed=seed),
        st.sampled_from(["ad", "tc", "bd"]), st.integers(0, 99),
    ),
    st.builds(DatasetRef.for_csv, st.just("train.csv"), st.just("test.csv"),
              name=st.sampled_from(["csv-dataset", "flows"])),
    st.builds(DatasetRef.for_npz, st.just("snap.npz")),
)


@st.composite
def run_specs(draw):
    names = draw(st.lists(st.sampled_from(["ad", "tc", "bd", "x"]),
                          min_size=1, max_size=3, unique=True))
    models = [
        ModelEntry(
            name=name,
            dataset=draw(dataset_refs),
            metric=draw(st.sampled_from(SUPPORTED_METRICS)),
            algorithms=tuple(draw(st.lists(
                st.sampled_from(["decision_tree", "svm", "dnn", "kmeans"]),
                max_size=3, unique=True,
            ))),
            throughput=draw(st.none() | st.floats(0.1, 10.0)),
            seed=draw(st.none() | st.integers(0, 2**31 - 1)),
        )
        for name in names
    ]
    return RunSpec(
        target=draw(st.sampled_from(["tofino", "taurus", "fpga"])),
        models=models,
        performance=draw(st.dictionaries(
            st.sampled_from(["latency", "throughput"]), st.floats(0.1, 1e3))),
        resources=draw(st.dictionaries(
            st.sampled_from(["mats", "rows", "cols"]), st.integers(1, 64))),
        budget=draw(st.integers(1, 50)),
        warmup=draw(st.integers(1, 10)),
        train_epochs=draw(st.integers(1, 50)),
        seed=draw(st.integers(0, 2**31 - 1)),
        starts=draw(st.integers(1, 4)),
        cache_dir=draw(st.none() | st.just("cache/")),
    )


def _example_doc() -> dict:
    with open(EXAMPLE_SPEC) as handle:
        return json.load(handle)


@st.composite
def fabric_specs(draw):
    doc = _example_doc()
    doc.update(
        budget=draw(st.integers(1, 20)),
        warmup=draw(st.integers(1, 5)),
        train_epochs=draw(st.integers(1, 30)),
        seed=draw(st.integers(0, 2**31 - 1)),
    )
    if draw(st.booleans()):
        del doc["traffic"]
    return FabricSpec.from_dict(doc)


# --------------------------------------------------------------------------- #
# mutations
# --------------------------------------------------------------------------- #
def _slots(node, path=()):
    """Every (container path, key-or-index) in a document, depth first."""
    if isinstance(node, dict):
        yield path, None  # the mapping itself: a place to add a key
        for key, value in node.items():
            yield path, key
            yield from _slots(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield path, index
            yield from _slots(value, path + (index,))


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


@st.composite
def mutations(draw, doc):
    """``(mutated document, kind, path, key)`` with one change applied."""
    doc = copy.deepcopy(doc)
    path, key = draw(st.sampled_from(list(_slots(doc))))
    container = _at(doc, path)
    if key is None:
        key = draw(st.sampled_from(["n_workers", "batch_size", "executor", "zz"]))
        container[key] = draw(st.sampled_from(JUNK))
        return doc, "add", path, key
    kind = "drop" if isinstance(container, dict) and draw(st.booleans()) else "retype"
    if kind == "drop":
        del container[key]
    else:
        container[key] = draw(st.sampled_from(JUNK))
    return doc, kind, path, key


def _check(parse, errors, mutated, kind, path, key, required):
    """Parse ``mutated``; only ``errors`` may escape.  An unknown or a
    missing required top-level key must be refused, by name."""
    must_fail = path == () and (kind == "add" or (kind == "drop" and key in required))
    try:
        parse(mutated)
    except errors as exc:
        if must_fail:
            assert key in str(exc)
        return
    assert not must_fail, f"{kind} of {key!r} was accepted"


# --------------------------------------------------------------------------- #
# properties
# --------------------------------------------------------------------------- #
@settings(max_examples=60, deadline=None)
@given(run_specs())
def test_run_spec_round_trips_exactly(spec):
    doc = spec.to_dict()
    again = RunSpec.from_dict(json.loads(json.dumps(doc)))
    assert again.to_dict() == doc


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_run_spec_fails_only_with_named_errors(data):
    doc = data.draw(run_specs()).to_dict()
    mutated, kind, path, key = data.draw(mutations(doc))
    _check(RunSpec.from_dict, RUN_ERRORS, mutated, kind, path, key,
           required=("target", "models"))


@settings(max_examples=30, deadline=None)
@given(fabric_specs())
def test_fabric_spec_round_trips_exactly(spec):
    doc = spec.to_dict()
    again = FabricSpec.from_dict(json.loads(json.dumps(doc)))
    assert again.to_dict() == doc


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_fabric_spec_fails_only_with_named_errors(data):
    doc = data.draw(fabric_specs()).to_dict()
    mutated, kind, path, key = data.draw(mutations(doc))
    _check(FabricSpec.from_dict, FABRIC_ERRORS, mutated, kind, path, key,
           required=("topology", "apps"))


# --------------------------------------------------------------------------- #
# the documented cases, by name
# --------------------------------------------------------------------------- #
def _run_doc() -> dict:
    return RunSpec(
        target="tofino",
        models=[ModelEntry(name="tc", dataset=DatasetRef.for_app("tc", seed=11))],
    ).to_dict()


@pytest.mark.parametrize("change, field", [
    ({"budget": "abc"}, "budget"),
    ({"models": "x"}, "models"),
    ({"n_workers": 2}, "n_workers"),
    ({"batch_size": 2}, "batch_size"),
    ({"executor": "process"}, "executor"),
])
def test_run_spec_errors_name_the_field(change, field):
    with pytest.raises(SpecificationError, match=field):
        RunSpec.from_dict({**_run_doc(), **change})


def test_run_spec_missing_target_is_named():
    doc = _run_doc()
    del doc["target"]
    with pytest.raises(SpecificationError, match="target"):
        RunSpec.from_dict(doc)


@pytest.mark.parametrize("change, field", [
    ({"budget": "abc"}, "budget"),
    ({"apps": "x"}, "apps"),
    ({"n_workers": 2}, "n_workers"),
])
def test_fabric_spec_errors_name_the_field(change, field):
    with pytest.raises(FabricError, match=field):
        FabricSpec.from_dict({**_example_doc(), **change})


def test_fabric_spec_missing_topology_is_named():
    doc = _example_doc()
    del doc["topology"]
    with pytest.raises(FabricError, match="topology"):
        FabricSpec.from_dict(doc)


def test_fabric_plan_rejects_malformed_spec_with_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**_example_doc(), "budget": "abc"}))
    assert main(["fabric", "plan", "--spec", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "budget" in err
    assert "Traceback" not in err
