"""Bytecode-level branch coverage, self-contained (no coverage.py on this box).

A branch site is a conditional jump instruction with two possible successor
offsets (jump target and fall-through).  A site counts as covered once both
successors have been observed while tracing.  Guards compiled from `assert`
statements are excluded: they are internal self-checks, not control flow of
the operation under test.

Works on the CPython 3.10-3.12 bytecode sets via sys.settrace opcode events.
The fall-through successor is the next listed instruction, which skips the
inline cache entries that 3.11 and later place after some instructions.
"""

import dis
import inspect
import sys

# POP_JUMP_IF_* are the 3.10 and 3.12 names, POP_JUMP_FORWARD/BACKWARD_IF_*
# the 3.11 ones; the rest are shared, or 3.10-only (JUMP_IF_NOT_EXC_MATCH).
_CONDITIONAL = {
    "POP_JUMP_IF_FALSE",
    "POP_JUMP_IF_TRUE",
    "POP_JUMP_IF_NONE",
    "POP_JUMP_IF_NOT_NONE",
    "JUMP_IF_TRUE_OR_POP",
    "JUMP_IF_FALSE_OR_POP",
    "FOR_ITER",
    "JUMP_IF_NOT_EXC_MATCH",
    "POP_JUMP_FORWARD_IF_FALSE",
    "POP_JUMP_FORWARD_IF_TRUE",
    "POP_JUMP_FORWARD_IF_NONE",
    "POP_JUMP_FORWARD_IF_NOT_NONE",
    "POP_JUMP_BACKWARD_IF_FALSE",
    "POP_JUMP_BACKWARD_IF_TRUE",
    "POP_JUMP_BACKWARD_IF_NONE",
    "POP_JUMP_BACKWARD_IF_NOT_NONE",
    "SEND",
}

_SKIP_NAMES = {"__repr__", "__str__", "__hash__"}


def _unwrap_code(obj):
    obj = inspect.unwrap(obj)
    if isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    if isinstance(obj, property):
        obj = obj.fget
    return getattr(obj, "__code__", None)


def code_objects(module, names):
    """Code objects (with nested consts) for the named funcs/classes of module."""
    out = set()
    srcfile = module.__file__

    def add(code):
        if code is None or code.co_filename != srcfile:
            return
        out.add(code)
        for const in code.co_consts:
            if inspect.iscode(const):
                add(const)

    for name in names:
        obj = getattr(module, name)
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr in _SKIP_NAMES:
                    continue
                add(_unwrap_code(member))
        else:
            add(_unwrap_code(obj))
    return out


def branch_sites(code):
    """Map offset -> (jump target, fall-through) for every conditional jump."""
    instrs = list(dis.get_instructions(code))
    sites = {}
    for ins, nxt in zip(instrs, instrs[1:]):
        if ins.opname not in _CONDITIONAL or nxt.opname == "LOAD_ASSERTION_ERROR":
            continue
        sites[ins.offset] = (ins.argval, nxt.offset)
    return sites


class BranchCoverage:
    """Trace calls into a set of code objects and record branch outcomes.

    Usage:
        cov = BranchCoverage(codes)
        with cov:
            run_workload()
        assert cov.fraction() >= 0.95
    """

    def __init__(self, codes):
        self.sites = {c: branch_sites(c) for c in codes}
        self.seen = {c: {} for c in codes}
        self.active = {c: s for c, s in self.sites.items() if s}
        self._prev = None

    def _complete(self, code):
        seen = self.seen[code]
        return all(len(seen.get(off, ())) == 2 for off in self.sites[code])

    def _global_trace(self, frame, event, arg):
        if event != "call":
            return None
        sites = self.active.get(frame.f_code)
        if sites is None:
            return None
        seen = self.seen[frame.f_code]
        code = frame.f_code
        frame.f_trace_opcodes = True
        last = [None]

        def local(fr, ev, a):
            if ev == "opcode":
                off = fr.f_lasti
                prev = last[0]
                if prev is not None:
                    pair = sites.get(prev)
                    if pair is not None and off in pair:
                        hits = seen.setdefault(prev, set())
                        if off not in hits:
                            hits.add(off)
                            if len(hits) == 2 and self._complete(code):
                                self.active.pop(code, None)
                last[0] = off
            elif ev == "exception":
                last[0] = None
            return local

        return local

    def __enter__(self):
        self._prev = sys.gettrace()
        sys.settrace(self._global_trace)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._prev)
        return False

    def totals(self):
        total = covered = 0
        for code, sites in self.sites.items():
            seen = self.seen[code]
            for off, pair in sites.items():
                total += 2
                covered += len(seen.get(off, set()) & set(pair))
        return covered, total

    def fraction(self):
        covered, total = self.totals()
        return 1.0 if total == 0 else covered / total

    def missing(self):
        """Uncovered (qualname, line, offset, missed-successor) rows, for diagnosis."""
        rows = []
        for code, sites in self.sites.items():
            if not sites:
                continue
            lines = {}
            line = code.co_firstlineno
            for ins in dis.get_instructions(code):
                if ins.starts_line is not None:
                    line = ins.starts_line
                lines[ins.offset] = line
            seen = self.seen[code]
            for off, pair in sites.items():
                missed = set(pair) - seen.get(off, set())
                for dst in sorted(missed):
                    rows.append((code.co_qualname if hasattr(code, "co_qualname")
                                 else code.co_name, lines[off], off, dst))
        return rows
