"""The public surface: every exported name, and every name the benchmark's tracer wraps."""

import importlib
import importlib.util
import os

import pytest

import qentropy

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "bench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


@pytest.mark.parametrize("name", qentropy.__all__)
def test_every_exported_name_resolves(name):
    assert hasattr(qentropy, name)


def test_every_traced_name_resolves():
    # the tracer looks these up by name, so a pruned one would fail only a traced run
    tracer = load_tracer()
    missing = [f"{module}.{attr}" for module, attrs in tracer.WRAPPED.items()
               for attr in attrs
               if not hasattr(importlib.import_module(f"qentropy.{module}"), attr)]
    missing += [f"core.{cls}" for cls in tracer.CONSTRUCTED if not hasattr(qentropy.core, cls)]
    assert missing == []
