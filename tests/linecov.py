"""Line coverage of src/ over the tier-1 tests, traced with the standard
library and no coverage package, so that a new path lands with the test
that runs it.

The tier-1 suite runs in this process under sys.settrace and
threading.settrace.  A module's executable lines are the lines that
co_lines() gives for each function, method, lambda and comprehension
compiled from its source; module and class bodies run at import and are
not counted.  Each unrun line must be covered by an entry of ALLOWED, and
each entry must cover some unrun line, so that an entry whose lines have
come to run leaves the table.  An entry is keyed by the stripped text of
its first line, which occurs once in its file, and of its last line, the
first at or after it with that text (None for a one-line entry), so that
lines moved by an edit elsewhere keep their entry.  One line is printed
per unrun line outside ALLOWED and per unused entry, then a summary; the
exit status is 1 on any such line, or when a test fails.

    python tests/linecov.py
"""

import inspect
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "enumorder"

# (file, first line, last line or None, reason): the stripped source text of
# an unrun block that no in-process tier-1 test can reach
ALLOWED = [
    ("cli.py", "raise EnumOrderError(f\"cannot read {path}: not a regular file\")", None,
     "a FIFO or device path is refused only in the CLI subprocess tests"),
    ("cli.py", "raise TooLarge(\"line length\", len(line), MAX_LINE_CHARS)", None,
     "an over-long line is refused only in the CLI subprocess tests"),
    ("oracle.py", "def _check_length_identity(n: int):", "return pairs, violations, None",
     "_check_length_identity runs only in the -m slow sweep at n = 7"),
    ("oracle.py", "except OSError:  # no process to spare: this one claims every job", "pass",
     "os.fork failing needs the host to run out of processes"),
    ("oracle.py", "elif child == 0:", "os._exit(0)",
     "the forked child's loop, whose trace stays in the child"),
    ("oracle.py", "except (OSError, IndexError, ValueError):", "return -1",
     "_current_cpu's fallback on a host without /proc"),
]


def executable_lines(path: Path):
    """The lines co_lines() names in each function-level code object of the
    file, as a set."""
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if inspect.iscode(c))
        if code.co_flags & inspect.CO_NEWLOCALS:
            lines.update(line for _, _, line in code.co_lines() if line is not None)
    return lines


def run_traced(args):
    """pytest's exit code over args, and the (filename, line) pairs run in
    files under PACKAGE."""
    prefix = str(PACKAGE) + os.sep
    hits = set()
    add = hits.add

    def local(frame, event, arg):
        if event == "line":
            add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        add((frame.f_code.co_filename, frame.f_lineno))
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, hits


def allowed_lines(texts, first, last):
    """The 1-based line numbers an entry covers in a file of stripped
    texts, or None when its first line does not occur exactly once or its
    last line does not follow it."""
    if texts.count(first) != 1:
        return None
    start = texts.index(first)
    if last is None:
        return range(start + 1, start + 2)
    if last not in texts[start:]:
        return None
    return range(start + 1, texts.index(last, start) + 2)


def main() -> int:
    # the CLI subprocess tests load the package from this tree, as the
    # in-process tests do
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    os.chdir(ROOT)
    code, hits = run_traced(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])
    loaded = Path(sys.modules["enumorder"].__file__).resolve().parent
    if loaded != PACKAGE:
        print(f"the tests loaded enumorder from {loaded}, not {PACKAGE}")
        return 1
    unexpected = total = unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        texts = [line.strip() for line in path.read_text().splitlines()]
        lines = executable_lines(path)
        missed = sorted(line for line in lines if (str(path), line) not in hits)
        total += len(lines)
        unrun += len(missed)
        covered = set()
        for name, first, last, reason in ALLOWED:
            if name != path.name:
                continue
            span = allowed_lines(texts, first, last)
            if span is None or not set(span) & set(missed):
                print(f"{path.name}: allowed entry covers no unrun line: {first!r} ({reason})")
                unexpected += 1
            else:
                covered.update(span)
        for line in missed:
            if line not in covered:
                print(f"{path.name}:{line}: not run: {texts[line - 1]}")
                unexpected += 1
    print(f"ran {total - unrun} of {total} function-body lines; "
          f"{unrun} unrun, {unexpected} outside the allowlist")
    return 1 if code or unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
