"""Every function perfbench's tracer wraps still exists in ``src/``.

The traced benchmark (``perfbench/tracer.py``) wraps program functions
by dotted name and skips a target it cannot find, listing it only in a
span dump's ``missing`` list, so a renamed method silently drops its
layer out of the traced split.  This test loads the tracer by path,
without installing it, and resolves each target the way its ``wrap``
does: attributes of a class must be defined on that class itself.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _targets() -> list:
    return [
        target
        for target, _, _ in (
            list(tracer.SERVER_TARGETS)
            + list(tracer.CLIENT_TARGETS)
            + tracer._codec_targets()
            + tracer._scheduler_targets()
        )
    ]


@pytest.mark.parametrize("target", _targets())
def test_target_resolves(target):
    assert callable(_resolve(target)), target


def test_every_layer_family_is_present():
    targets = _targets()
    for family in ("repro.protocol.codec:", "repro.synth.scheduler:"):
        assert any(target.startswith(family) for target in targets), family


def test_remote_post_keeps_the_op_argument_the_tracer_reads():
    # the tracer's span attributes read ``op`` by keyword, or as the
    # fourth positional argument after self, path and payload
    parameters = list(
        inspect.signature(_resolve("repro.fleet.remote:RemoteBackend._post")).parameters
    )
    assert parameters[:4] == ["self", "path", "payload", "op"]
