"""Run one towercert CLI command in-process with a span around every layer.

    python3 perfbench/traced_cli.py SUMMARY.json <cli arguments...>

Each public name is wrapped where its caller looks it up (the module that
imported it), so a span covers exactly the calls the program makes.  A
span records its name, start, end and parent; spans stay in memory until
the command returns, and are then summarised per name (calls, total
seconds, self seconds) into SUMMARY.json, with the names this tree lacks
(their layer metrics then read 0).  Records go to stdout exactly as
the CLI writes them; the exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

import towercert.cli as cli
import towercert.cubic as cubic
import towercert.elliptic as elliptic
import towercert.hlsearch as hlsearch
import towercert.modforms as modforms
import towercert.tower as tower

# (module, attribute looked up there, span name)
SPANS = (
    (cli, "search_shanks_candidates", "hlsearch.search_shanks_candidates"),
    (cli, "certify_cyclotomic", "tower.certify_cyclotomic"),
    (cli, "record_for", "records.record_for"),
    (cli, "to_json_line", "records.to_json_line"),
    (cli, "parse_record", "records.parse_record"),
    (cli, "hl_constant", "hlsearch.hl_constant"),
    (cli, "empirical_prime_count", "hlsearch.empirical_prime_count"),
    (cli, "sl2_perfect", "elliptic.sl2_perfect"),
    (cli, "furuta_n", "elliptic.furuta_n"),
    (cli, "certify_eigenform", "modforms.certify_eigenform"),
    (tower, "class_number", "cubic.class_number"),
    (cubic, "real_roots", "cubic.real_roots"),
    (cubic, "regulator", "cubic.regulator"),
    (cubic, "l_sum", "cubic.l_sum"),
    (cubic, "cubic_character", "cubic.cubic_character"),
    (cubic, "_least_primitive_root", "cubic.primitive_root"),
    (hlsearch, "primes_up_to", "arith.primes_up_to"),
) + tuple(
    (module, "is_prime", "arith.is_prime")
    for module in (cli, tower, cubic, hlsearch, elliptic, modforms)
)


def _count_l_sum(counters, args, kwargs, result):
    compensated = kwargs.get("compensated", args[1] if len(args) > 1 else False)
    if compensated:
        counters["cubic.l_sum.compensated_calls"] = (
            counters.get("cubic.l_sum.compensated_calls", 0) + 1
        )


def _count_class_number(counters, args, kwargs, result):
    counters["cubic.class_numbers_decided"] = counters.get("cubic.class_numbers_decided", 0) + 1


def _count_emitted(counters, args, kwargs, result):
    counters["records.bytes"] = counters.get("records.bytes", 0) + len(result) + 1


def _count_parsed(counters, args, kwargs, result):
    counters["records.bytes"] = counters.get("records.bytes", 0) + len(args[0]) + 1


# Counts taken at the same boundaries as the spans.
COUNTERS = {
    "cubic.l_sum": _count_l_sum,
    "cubic.class_number": _count_class_number,
    "records.to_json_line": _count_emitted,
    "records.parse_record": _count_parsed,
}


class Tracer:
    """In-memory span store: parallel arrays indexed by span number."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, count=None):
        nid = self._name_id(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, counters = self._stack, self.counters

        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        """Calls, total and self seconds per span name."""
        n = len(self.start)
        covered = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        spans = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            entry = spans[self.names[self.name_of[i]]]
            duration = self.end[i] - self.start[i]
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - covered[i]
        return {"spans": spans, "counters": self.counters}


def install(tracer: Tracer) -> list[str]:
    """Wrap every listed name the tree has; return the ones it lacks."""
    missing = []
    for module, attr, name in SPANS:
        if hasattr(module, attr):
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), COUNTERS.get(name)))
        else:
            missing.append(f"{module.__name__}.{attr}")
    return missing


def main(argv: list[str]) -> int:
    summary_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    missing = install(tracer)
    code = tracer.wrap("cli.main", cli.main)(cli_argv)
    sys.stdout.flush()
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump({**tracer.summary(), "missing": missing}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
