"""Every record of the package behaves as a `@dataclass(frozen=True)` record.

The records are the config sections, the results schema and the statistics'
results. Each test runs over all of them: assignment and deletion are refused,
equality and hashing read the compare fields alone, repr prints the repr
fields, pickling rebuilds a record through its constructor, `dataclasses`
can read and replace it, and a bad call names the class. Building the records
compiles no method source.
"""

import dataclasses
import json
import os
import pathlib
import pickle
import re
import subprocess
import sys

import pytest

import retailsim
from retailsim import config, results, stats

MODULES = (config, results, stats)


def record_classes():
    """Every dataclass defined in the modules that hold records."""
    return {
        value
        for module in MODULES
        for value in vars(module).values()
        if isinstance(value, type)
        and value.__module__ == module.__name__
        and dataclasses.is_dataclass(value)
    }


def samples(ww_config):
    """One instance of each record class."""
    metrics = results.RunMetrics(10, 8, 14, -2, 0.5, None, 0.25, 20, 19, 1, 2, 0, 3, 1, 2, 14)
    effect = stats.EffectTest("A", 12.5, 2, 6.25, 3.5, 0.04)
    within = stats.EffectTest("within", 30.0, 20, 1.5, 0.0, 1.0)
    return [
        ww_config,
        *(getattr(ww_config, f.name) for f in dataclasses.fields(ww_config)[1:]),
        ww_config.durations.browse,
        metrics,
        results.ResultRow("cashiers", "WW", 2, 0, 12345, metrics),
        effect,
        stats.AnovaTable(effect, effect, effect, within, False),
        stats.LeveneResult(1.5, 2, 27, 0.2, False),
        stats.TukeyResult(0, 1, 2.5, 3.0, 0.01, True),
    ]


@pytest.fixture(scope="module")
def records(ww_config):
    return samples(ww_config)


def values(record, which):
    """The record's values of the fields for which `which(field)` holds."""
    return tuple(getattr(record, f.name) for f in dataclasses.fields(record) if which(f))


def init_values(record):
    return values(record, lambda f: f.init)


def test_every_record_class_has_a_sample(records):
    assert {type(r) for r in records} == record_classes()
    assert len(record_classes()) == 16


def test_records_refuse_assignment_and_deletion(records):
    for record in records:
        name = dataclasses.fields(record)[0].name
        for attr in (name, "extra"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, attr, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, attr)
        assert getattr(record, name) == init_values(record)[0]


def test_equality_and_hash_read_the_compare_fields_only(records):
    for record in records:
        cls = type(record)
        twin = cls(*init_values(record))
        assert twin == record and twin is not record
        compared = values(record, lambda f: f.compare)
        assert hash(twin) == hash(record) == hash(compared)
        # A record of another class with the same compare fields and values.
        names = [f.name for f in dataclasses.fields(record) if f.compare]
        other = dataclasses.make_dataclass(cls.__name__, names, frozen=True)(*compared)
        assert record != other and other != record
        assert record.__eq__(compared) is NotImplemented
    a, b = config.TriangularParams(1.0, 3.0, 6.0), config.TriangularParams(1.0, 3.0, 6.0)
    assert a == b and hash(a) == hash(b) == hash((1.0, 3.0, 6.0))
    assert a != config.TriangularParams(1.0, 3.0, 7.0)


def test_repr_prints_the_repr_fields(records):
    for record in records:
        shown = ", ".join(
            f"{f.name}={getattr(record, f.name)!r}" for f in dataclasses.fields(record) if f.repr
        )
        assert repr(record) == f"{type(record).__qualname__}({shown})"
    assert repr(config.Horizon()) == "Horizon(trading_day_minutes=600.0, days=70)"
    assert repr(config.TriangularParams(1.0, 3.0, 6.0)) == (
        "TriangularParams(low=1.0, mode=3.0, high=6.0)"
    )
    assert repr(stats.TukeyResult(0, 1, 2.5, 3.0, 0.01, True)) == (
        "TukeyResult(group_i=0, group_j=1, diff=2.5, q_stat=3.0, p_value=0.01, significant=True)"
    )


def test_pickling_rebuilds_each_record_through_its_constructor(records, monkeypatch):
    for record in records:
        cls = type(record)
        restored = pickle.loads(pickle.dumps(record))
        assert type(restored) is cls and restored == record
        if "__post_init__" not in vars(cls):
            continue
        built = []
        post_init = cls.__post_init__

        def spy(self, post_init=post_init):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", spy)
        restored = pickle.loads(pickle.dumps(record))
        monkeypatch.undo()
        assert restored == record and any(r is restored for r in built), cls.__name__


def test_dataclasses_reads_and_replaces_every_record(records):
    for record in records:
        cls = type(record)
        assert dataclasses.is_dataclass(cls)
        names = [f.name for f in dataclasses.fields(record)]
        assert list(dataclasses.asdict(record)) == names
        copy = dataclasses.replace(record)
        assert copy == record and copy is not record
        first = dataclasses.fields(record)[0].name
        assert dataclasses.replace(record, **{first: getattr(record, first)}) == record
    params = dataclasses.replace(config.TriangularParams(1.0, 3.0, 6.0), high=8.0)
    assert (params.high, params.span, params.right) == (8.0, 7.0, 5.0)


def test_a_bad_call_names_the_class(records):
    for record in records:
        cls = type(record)
        args = init_values(record)
        name = re.escape(cls.__name__)
        with pytest.raises(TypeError, match=name):
            cls(*args, None)
        with pytest.raises(TypeError, match=name):
            cls(*args, extra=1)
        with pytest.raises(TypeError, match=name):
            cls(*args, **{dataclasses.fields(cls)[0].name: args[0]})
        if any(f.init and f.default is dataclasses.MISSING for f in dataclasses.fields(cls)):
            with pytest.raises(TypeError, match=name):
                cls()


def test_defaults_and_keywords_build_the_same_record():
    assert config.Horizon() == config.Horizon(600.0, 70) == config.Horizon(days=70)
    assert config.Horizon(300.0) == config.Horizon(trading_day_minutes=300.0)
    assert config.Queues().cashier_priority == ("refund", "pay")
    params = config.TriangularParams(high=6.0, low=1.0, mode=3.0)
    assert params == config.TriangularParams(1.0, 3.0, 6.0)
    assert (params.span, params.left, params.right) == (5.0, 2.0, 3.0)


# Run in a fresh interpreter: the standard modules that the package imports
# and that may build classes of their own are loaded first, and then every
# source compiled from a string while the records are built is kept.
COMPILE_PROBE = """\
import argparse, csv, dataclasses, inspect, json, sys, tomllib
kept = []
def hook(event, args):
    if event == "compile" and args[1] == "<string>":
        source = args[0]
        kept.append(source.decode() if isinstance(source, bytes) else str(source))
sys.addaudithook(hook)
import retailsim.cli, retailsim.config
print(json.dumps(kept))
"""

GENERATED = re.compile(r"\bdef (__init__|__eq__|__hash__|__repr__|__setattr__|__delattr__)\b")


def test_no_record_method_is_generated_at_import():
    src = str(pathlib.Path(retailsim.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", COMPILE_PROBE], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    generated = [source for source in json.loads(proc.stdout) if GENERATED.search(source)]
    assert generated == []
    # Without a docstring of its own, `dataclass` writes one from the signature.
    for cls in record_classes():
        assert not cls.__doc__.startswith(f"{cls.__name__}("), cls.__name__
