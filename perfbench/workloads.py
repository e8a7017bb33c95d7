"""Workload inputs and output checks for the towercert benchmark.

A workload is a set of CLI commands (one "pass").  The seed picks the
inputs from bands whose members cost the same, so every seed measures the
same amount of work; the program only ever sees the generated arguments.
Every output line must pass ``parse_record`` and every mathematical value
must equal the reference recorded in ``reference.json``.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("sweep", "large-conductor", "group-closure", "survey")

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Substituted with a per-run file: survey writes its registry there, then
# reads it back.
REGISTRY = "{registry}"

RESIDUES = frozenset({2, 7, 10, 11})

# Bands of equal cost.  sweep: every M in the band has the same prime
# conductors up to M (the next one is m=514), so `search --certify` does the
# same certification work for each.  large-conductor: four consecutive
# certifiable m whose conductors lie within 1% of 5.34e6.  group-closure:
# the closure cost differs from n to n, so every pass runs the whole band in
# seed order and the seed picks the Furuta witnesses.  survey: each band
# spans under 1% of its input.
SIZES = {
    "full": {
        "sweep": {"m_max": tuple(range(494, 514))},
        "large-conductor": {"m": (2303, 2306, 2311, 2314), "picks": 2},
        "group-closure": {
            "n": (29, 31, 37, 41),
            "furuta_ell": (2659, 3547, 5119, 8563, 9127, 9319, 9907, 11779),
            "furuta_m_e": (30, 210),
        },
        "survey": {
            "m_max": tuple(100_000 + 100 * i for i in range(8)),
            "prime_bound": tuple(10**7 + 10_000 * i for i in range(8)),
            "x": tuple(10**12 + 10**9 * i for i in range(8)),
            "weight": (12, 18, 20, 26),
            "ell": 877,
        },
    },
    # A few seconds in total; the benchmark's own tests use it.
    "smoke": {
        "sweep": {"m_max": (50, 51, 52, 53)},
        "large-conductor": {"m": (50, 58, 70), "picks": 2},
        "group-closure": {"n": (7, 11), "furuta_ell": (2659, 3547), "furuta_m_e": (30,)},
        "survey": {
            "m_max": (2000, 2001),
            "prime_bound": (10**5, 10**5 + 1),
            "x": (10**8, 10**8 + 1),
            "weight": (12, 18),
            "ell": 877,
        },
    },
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output must contain."""

    argv: tuple[str, ...]
    kind: str
    params: dict = field(hash=False)

    def text(self) -> str:
        return " ".join(self.argv)


def command_set(workload: str, seed: int, size: str = "full") -> list[Command]:
    """The commands of one pass, drawn from the workload's bands by seed."""
    spec = SIZES[size][workload]
    rng = random.Random(f"{workload}/{seed}")
    if workload == "sweep":
        m_max = rng.choice(spec["m_max"])
        return [_search(m_max, certify=True)]
    if workload == "large-conductor":
        return [
            Command(("certify", "cyclotomic", "--m", str(m)), "certify_cyclotomic", {"m": m})
            for m in rng.sample(spec["m"], spec["picks"])
        ]
    if workload == "group-closure":
        moduli = list(spec["n"])
        rng.shuffle(moduli)
        ell = rng.choice(spec["furuta_ell"])
        m_e = rng.choice(spec["furuta_m_e"])
        commands = [
            Command(("group", "perfect", "--n", str(n)), "group_perfect", {"n": n})
            for n in moduli
        ]
        commands.append(
            Command(
                ("furuta", "--ell", str(ell), "--m-e", str(m_e)),
                "furuta",
                {"ell": ell, "m_e": m_e},
            )
        )
        return commands
    if workload == "survey":
        bound = rng.choice(spec["prime_bound"])
        x = rng.choice(spec["x"])
        weight = rng.choice(spec["weight"])
        ell = spec["ell"]
        return [
            _search(rng.choice(spec["m_max"]), certify=False),
            Command(
                ("hl", "constant", "--prime-bound", str(bound)),
                "hl_constant",
                {"prime_bound": bound},
            ),
            Command(("hl", "count", "--x", str(x)), "hl_count", {"x": x}),
            Command(
                (
                    "certify", "eigenform", "--weight", str(weight), "--ell", str(ell),
                    "--registry", REGISTRY,
                ),
                "certify_eigenform",
                {"weight": weight, "ell": ell},
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _search(m_max: int, certify: bool) -> Command:
    argv = ("search", "--m-max", str(m_max), "--jobs", "1")
    if certify:
        argv += ("--certify",)
    else:
        argv += ("--out", REGISTRY)
    return Command(argv, "search", {"m_max": m_max, "certify": certify})


def band_inputs(size: str) -> dict[str, set]:
    """Every input any seed can draw at this size, keyed by reference table."""
    spec = SIZES[size]
    group, survey = spec["group-closure"], spec["survey"]
    return {
        "m_max": set(spec["sweep"]["m_max"]) | set(survey["m_max"]),
        "cyclotomic": set(spec["large-conductor"]["m"]),
        "group": set(group["n"]),
        "furuta": {(ell, m_e) for ell in group["furuta_ell"] for m_e in group["furuta_m_e"]},
        "hl_constant": set(survey["prime_bound"]),
        "prime_count": set(survey["x"]),
        "eigenform": {(k, survey["ell"]) for k in survey["weight"]},
    }


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# The CLI's default --prime-bound for `hl count`.
HL_COUNT_BOUND = 10**6

_TIMESTAMP = re.compile(rb'"timestamp":"[^"]*"')


def strip_timestamps(output: bytes) -> bytes:
    """Output bytes with every record's timestamp blanked."""
    return _TIMESTAMP.sub(b'"timestamp":""', output)


@dataclass
class Outcome:
    """Check result for one command's output."""

    ok: bool
    items: int = 0
    errors: list[str] = field(default_factory=list)
    gaps: list[float] = field(default_factory=list)
    elements_closed: int = 0


class Checker:
    """Compares CLI outputs with the reference values, not content hashes.

    ``parse_record`` is the program's own reader, so a line it rejects
    (bad JSON, wrong hash) counts as a failure.  Values are compared field
    by field so that a deliberate schema-version bump changes nothing here.
    """

    def __init__(self, reference: dict, parse_record):
        self._parse = parse_record
        self._prime_ms = set(reference["prime_ms"])
        self._prime_ms_limit = reference["prime_ms_limit"]
        self._ref = reference

    def check(
        self, command: Command, exit_code: int, output: bytes, registry_lines: int = 0
    ) -> Outcome:
        outcome = Outcome(ok=True)
        try:
            records = [
                self._parse(line)
                for line in output.decode("utf-8").splitlines()
                if line.strip()
            ]
        except Exception as exc:  # any reader failure is a failed operation
            return Outcome(ok=False, errors=[f"unreadable output: {exc!r}"])
        check = getattr(self, "_check_" + command.kind)
        expected_exit = check(command.params, records, outcome)
        if exit_code != expected_exit:
            outcome.errors.append(f"exit code {exit_code}, expected {expected_exit}")
        if command.kind == "certify_eigenform":
            outcome.items += registry_lines
        outcome.ok = not outcome.errors
        return outcome

    def _expect(self, outcome: Outcome, what: str, got, want) -> None:
        if got != want:
            outcome.errors.append(f"{what}: got {got!r}, expected {want!r}")

    def _kinds(self, outcome: Outcome, records, kinds: list[str]) -> bool:
        got = [r.kind for r in records]
        if got == kinds:
            return True
        line = next(
            (i for i, (g, k) in enumerate(zip(got, kinds)) if g != k), min(len(got), len(kinds))
        )
        outcome.errors.append(
            f"record kinds differ from line {line + 1}: {len(got)} records, expected {len(kinds)}"
        )
        return False

    def _tower(self, outcome: Outcome, payload: dict, m: int) -> bool:
        h, certified = self._ref["cyclotomic"][str(m)]
        self._expect(outcome, f"m={m} h", payload.get("h"), h)
        self._expect(outcome, f"m={m} certified", payload.get("certified"), certified)
        self._expect(outcome, f"m={m} ell", payload.get("ell"), m * m + 3 * m + 9)
        gap = payload.get("provenance", {}).get("integrality_gap")
        if isinstance(gap, float):
            outcome.gaps.append(gap)
        return certified

    def _check_search(self, params, records, outcome) -> int:
        m_max, certify = params["m_max"], params["certify"]
        if m_max > self._prime_ms_limit:
            raise ValueError(f"reference covers m <= {self._prime_ms_limit} only")
        kinds = []
        expected = []
        for m in range(1, m_max + 1):
            if m % 12 not in RESIDUES:
                continue
            prime = m in self._prime_ms
            kinds.append("shanks_candidate")
            expected.append((m, prime))
            if certify and prime:
                kinds.append("cyclotomic_tower")
                expected.append((m, None))
        if not self._kinds(outcome, records, kinds):
            return 0
        for record, (m, prime) in zip(records, expected):
            payload = record.payload
            if prime is None:
                self._tower(outcome, payload, m)
                outcome.items += 1
                continue
            self._expect(outcome, "candidate m", payload.get("m"), m)
            self._expect(outcome, f"m={m} ell", payload.get("ell"), m * m + 3 * m + 9)
            self._expect(outcome, f"m={m} is_prime_ell", payload.get("is_prime_ell"), prime)
            if not certify:
                outcome.items += 1
        return 0

    def _check_certify_cyclotomic(self, params, records, outcome) -> int:
        if not self._kinds(outcome, records, ["cyclotomic_tower"]):
            return 0
        certified = self._tower(outcome, records[0].payload, params["m"])
        outcome.items = 1
        return 0 if certified else 1

    def _check_group_perfect(self, params, records, outcome) -> int:
        if not self._kinds(outcome, records, ["group_report"]):
            return 0
        order, abelianization, perfect = self._ref["group"][str(params["n"])]
        payload = records[0].payload
        self._expect(outcome, "n", payload.get("n"), params["n"])
        self._expect(outcome, "group_order", payload.get("group_order"), order)
        self._expect(
            outcome, "abelianization_order", payload.get("abelianization_order"), abelianization
        )
        self._expect(outcome, "perfect", payload.get("perfect"), perfect)
        outcome.items = 1
        outcome.elements_closed = order // abelianization
        return 0

    def _check_furuta(self, params, records, outcome) -> int:
        if not self._kinds(outcome, records, ["furuta"]):
            return 0
        primes = self._ref["furuta"][f"{params['ell']},{params['m_e']}"]
        payload = records[0].payload
        self._expect(outcome, "primes", payload.get("primes"), primes)
        product = 1
        for p in primes:
            product *= p
        self._expect(outcome, "n", payload.get("n"), product)
        outcome.items = 1
        return 0

    def _hl_constant(self, outcome, payload, bound) -> None:
        constant, terms = self._ref["hl_constant"][str(bound)]
        self._expect(outcome, "prime_bound", payload.get("prime_bound"), bound)
        self._expect(outcome, "constant", payload.get("constant"), float(constant))
        self._expect(outcome, "terms_used", payload.get("terms_used"), terms)

    def _check_hl_constant(self, params, records, outcome) -> int:
        if self._kinds(outcome, records, ["hl_constant"]):
            self._hl_constant(outcome, records[0].payload, params["prime_bound"])
            outcome.items = 1
        return 0

    def _check_hl_count(self, params, records, outcome) -> int:
        if self._kinds(outcome, records, ["hl_constant", "prime_count"]):
            self._hl_constant(outcome, records[0].payload, HL_COUNT_BOUND)
            payload = records[1].payload
            self._expect(outcome, "x", payload.get("x"), params["x"])
            self._expect(
                outcome, "count", payload.get("count"), self._ref["prime_count"][str(params["x"])]
            )
            outcome.items = 2
        return 0

    def _check_certify_eigenform(self, params, records, outcome) -> int:
        if not self._kinds(outcome, records, ["eigenform"]):
            return 0
        certified, det_index, evidence = self._ref["eigenform"][
            f"{params['weight']},{params['ell']}"
        ]
        payload = records[0].payload
        self._expect(outcome, "certified", payload.get("certified"), certified)
        self._expect(outcome, "det_index", payload.get("det_index"), det_index)
        self._expect(outcome, "tower_evidence", payload.get("tower_evidence"), evidence)
        outcome.items = 1
        return 0 if certified else 1
