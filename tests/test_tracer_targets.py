"""Every place the benchmark's tracer rebinds still names a function.

``perfbench/tracer.py`` wraps functions at fixed ``module:attribute``
targets and reports a target that no longer resolves as a missing metric
instead of failing; this test fails instead."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # standard library imports only
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("target", sorted(
    {t for targets in tracer.WRAPS.values() for t in targets}))
def test_tracer_target_resolves(target):
    owner, attr = tracer._resolve(target)
    assert callable(getattr(owner, attr))


def test_tracer_finds_the_subcommands():
    commands = importlib.import_module("wmdlab.cli")._COMMANDS
    assert commands and all(callable(fn) for fn in commands.values())
