"""The one report type, from a law sweep to ``vk`` output, and its formats.

A validator sweeps a family of laws and returns a ``Report``: it counts its
checks and records every ``Violation`` with a witness, and never raises on
a broken law, so perturbation tests can count what was caught.  A command
folds such sweeps into its own report with ``merge`` and adds its counts
and payload; the verdict and the witnesses follow from the violations.

The machine format is line-oriented ``KEY value`` text under a ``FORMAT 1``
header, closing with ``RESULT ok|fail``; it never includes wall time, so a
rerun with the same seed is byte-identical.  The text format is for humans,
ends with the run's wall time, and honors VK_COLOR=1 for a colored verdict.
"""

import os
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Violation:
    """A broken ``law``; ``witness`` says where, if the law alone does not."""

    law: str
    witness: str = ""

    def __str__(self):
        return f"{self.law}: {self.witness}" if self.witness else self.law


@dataclass
class Report:
    command: str
    counts: dict = field(default_factory=dict)
    violations: list[Violation] = field(default_factory=list)
    payload: list = field(default_factory=list)  # pretty text lines
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def status(self) -> str:
        return "ok" if self.ok else "fail"

    @property
    def witnesses(self) -> list[str]:
        return [str(v) for v in self.violations]

    @property
    def checks(self) -> int:
        return self.counts.get("checks", 0)

    def count(self, n: int = 1):
        self.counts["checks"] = self.counts.get("checks", 0) + n

    def fail(self, law: str, witness: str = ""):
        self.violations.append(Violation(law, witness))

    def merge(self, sweep: "Report"):
        """Fold a sweep's checks and violations into this report."""
        self.count(sweep.checks)
        self.counts["violations"] = self.counts.get("violations", 0) + len(sweep.violations)
        self.violations.extend(sweep.violations)

    def summary(self) -> str:
        state = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return f"{self.command}: {self.checks} checks, {state}"


def _color_enabled() -> bool:
    return os.environ.get("VK_COLOR", "0") == "1"


def emit(report: Report, fmt: str = "text") -> str:
    if fmt == "machine":
        lines = ["FORMAT 1", f"COMMAND {report.command}"]
        for k, v in report.counts.items():
            lines.append(f"COUNT {k} {v}")
        for line in report.payload:
            lines.append(f"DATA {line}")
        for w in report.witnesses:
            lines.append(f"WITNESS {w}")
        lines.append(f"RESULT {report.status}")
        return "\n".join(lines) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    lines = [f"command: {report.command}"]
    for k, v in report.counts.items():
        lines.append(f"{k}: {v}")
    lines.extend(report.payload)
    for w in report.witnesses:
        lines.append(f"witness: {w}")
    verdict = report.status
    if _color_enabled():
        code = "32" if report.ok else "31"
        verdict = f"\x1b[{code}m{verdict}\x1b[0m"
    lines.append(f"result: {verdict}")
    lines.append(f"time: {report.wall_time:.3f}s")
    return "\n".join(lines) + "\n"
