"""perfbench's tracer wraps library names from outside; a refactor that
drops or renames one of them breaks only traced benchmark runs.  This
installs and uninstalls the tracer without running anything."""

import inspect
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402


def _namespaces():
    """Every tracer module and every nedlab class bound in one."""
    spaces = list(tracing.MODULES)
    for module in tracing.MODULES:
        spaces += [value for value in vars(module).values()
                   if inspect.isclass(value) and value.__module__.startswith("nedlab")]
    return spaces


def _snapshot():
    return {id(space): (space, dict(vars(space))) for space in _namespaces()}


def test_install_patches_and_uninstall_restores():
    before = _snapshot()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    for key, (space, names) in before.items():
        now = after[key][1]
        assert now.keys() == names.keys(), space
        changed = [name for name in names if now[name] is not names[name]]
        assert changed == [], (space, changed)
