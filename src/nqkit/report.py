"""Check outcome containers shared by every verification routine.

A report carries the verified identity, the nonzero residuals (exact
polynomials, stringified canonically) and free-form notes.  It records no
timing, so that reports are byte stable run to run.
"""

from __future__ import annotations

PASS = "pass"
FAIL = "fail"
WARN = "warn"
SKIPPED = "skipped"

_SEVERITY = {SKIPPED: 0, PASS: 1, WARN: 2, FAIL: 3}
_COLORS = {PASS: "32", FAIL: "31", WARN: "33", SKIPPED: "90"}


class CheckReport:
    def __init__(
        self,
        name: str,
        status: str,
        identity: str,
        residuals: list[tuple[str, str]] | None = None,
        notes: list[str] | None = None,
    ):
        self.name = name
        self.status = status
        self.identity = identity
        self.residuals = [] if residuals is None else residuals
        self.notes = [] if notes is None else notes

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "identity": self.identity,
            "residuals": [
                {"index": index, "value": value} for index, value in self.residuals
            ],
            "notes": list(self.notes),
        }

    def render_text(self, color: bool = False) -> str:
        tag = self.status.upper()
        if color:
            tag = f"\x1b[{_COLORS[self.status]}m{tag}\x1b[0m"
        lines = [f"[{tag}] {self.name}: {self.identity}"]
        for index, value in self.residuals:
            lines.append(f"    residual {index}: {value}")
        for note in self.notes:
            lines.append(f"    note: {note}")
        return "\n".join(lines)


def family_residuals(tag: str, family: dict, names: str) -> list[tuple[str, str]]:
    """The nonzero entries of an index in ascending keys, as `tag[a=1,i=2]`.

    Each key is a tuple of 0-based indices, labelled 1-based by the letters
    of `names`; a value is any polynomial with `is_zero` and `str`.
    """
    residuals = []
    for key, value in sorted(family.items()):
        if not value.is_zero:
            label = ",".join(f"{name}={k + 1}" for name, k in zip(names, key))
            residuals.append((f"{tag}[{label}]", str(value)))
    return residuals


def worst_status(reports: list[CheckReport]) -> str:
    """The most severe status present; fail dominates warn dominates pass."""
    status = SKIPPED
    for report in reports:
        if _SEVERITY[report.status] > _SEVERITY[status]:
            status = report.status
    return status
