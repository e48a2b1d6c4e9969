"""Statement lines of ``src/nedlab`` that no ordinary run reaches.

Runs, under ``sys.settrace``, one pass of each benchmark workload
(``perfbench``) at the given seed, every demo under ``demos/``, and every
command of ``tests/data/cli/commands.txt``, then prints, for each function
of ``src/nedlab``, the statement lines that none of those runs executed.
A function no run entered is printed as ``never called``.

    PYTHONPATH=src python tools/traffic.py [--seed 1]

Only frames of ``src/nedlab`` are traced line by line; the whole run took
about 7 s on a 2-vCPU Xeon VM.  The script imports the ``perfbench``
modules without changing them and writes only to a temporary folder.
"""

import argparse
import contextlib
import importlib
import io
import pathlib
import runpy
import sys
import tempfile
import threading
import types
import warnings

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nedlab"
WORKLOADS = ("scalar_certify", "matrix_certify", "attractor_sim")


def _code_objects(code):
    """`code` and every code object nested in it, depth first."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def statement_lines():
    """{(file name, qualified function name): set of statement lines}, the
    lines each function's bytecode starts an instruction on, less its
    ``def`` line."""
    table = {}
    for path in sorted(SRC.glob("*.py")):
        module = compile(path.read_text(), str(path), "exec")
        for code in _code_objects(module):
            if code is module:
                continue
            lines = {line for _, _, line in code.co_lines() if line is not None}
            lines.discard(code.co_firstlineno)
            if lines:
                table.setdefault((path.name, code.co_qualname), set()).update(lines)
    return table


class Tracer:
    """Records the (file, line) of every line event in ``src/nedlab``."""

    def __init__(self):
        self.hits = set()
        self.entered = set()
        self._prefix = str(SRC)

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def __call__(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self._prefix):
            return None
        self.entered.add((filename, frame.f_code.co_qualname))
        return self._local

    @contextlib.contextmanager
    def active(self):
        threading.settrace(self)
        sys.settrace(self)
        try:
            yield
        finally:
            sys.settrace(None)
            threading.settrace(None)


def run_workloads(seed, work):
    sys.path.insert(0, str(ROOT / "perfbench"))
    common = importlib.import_module("common")
    for name in WORKLOADS:
        folder = pathlib.Path(work, name)
        folder.mkdir()
        result = common.run_pass(importlib.import_module(name).build(seed, str(folder)))
        print("workload %s: %d verdicts, %d raised"
              % (name, len(result.latencies), len(result.errors)), file=sys.stderr)


def run_demos():
    for path in sorted((ROOT / "demos").glob("0*.py")):
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("ignore")
            runpy.run_path(str(path), run_name="__main__")
        print("demo %s" % path.name, file=sys.stderr)


def run_commands(work):
    from nedlab.cli import run

    data = ROOT / "tests" / "data" / "cli"
    out = pathlib.Path(work, "cli")
    out.mkdir()
    for line in (data / "commands.txt").read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        argv = line.replace("{data}", str(data)).replace("{out}", str(out)).split()
        with contextlib.redirect_stdout(io.StringIO()):
            code = run(argv)
        print("command %s: exit %d" % (" ".join(argv[:1]), code), file=sys.stderr)


def _spans(lines):
    """'3-5, 9' for [3, 4, 5, 9]."""
    spans, start = [], None
    for line in sorted(lines) + [None]:
        if start is not None and line != prev + 1:
            spans.append(str(start) if prev == start else "%d-%d" % (start, prev))
            start = None
        if start is None:
            start = line
        prev = line
    return ", ".join(spans)


def report(table, tracer):
    hits = {}
    for filename, line in tracer.hits:
        hits.setdefault(pathlib.Path(filename).name, set()).add(line)
    entered = {(pathlib.Path(f).name, q) for f, q in tracer.entered}
    total = missed = 0
    for (module, qualname), lines in sorted(table.items()):
        unreached = lines - hits.get(module, set())
        total += len(lines)
        missed += len(unreached)
        if (module, qualname) not in entered:
            print("%s:%s: never called (%d lines)" % (module, qualname, len(lines)))
        elif unreached:
            print("%s:%s: %s" % (module, qualname, _spans(unreached)))
    print("%d of %d statement lines unreached" % (missed, total))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="benchmark seed")
    args = parser.parse_args(argv)
    table = statement_lines()
    tracer = Tracer()
    with tempfile.TemporaryDirectory() as work, tracer.active():
        run_workloads(args.seed, work)
        run_demos()
        run_commands(work)
    report(table, tracer)


if __name__ == "__main__":
    main()
