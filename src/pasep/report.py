"""Small result record shared by the verification routines."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckReport:
    """Outcome of one verification: a name, a verdict, any violations, and
    the sizes it ran at (empty where the verification does not record them)."""

    name: str
    ok: bool
    violations: list[str] = field(default_factory=list)
    sizes: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        head = f"{'PASS' if self.ok else 'FAIL'} {self.name}"
        ns = self.sizes
        if len(ns) > 1 and ns == tuple(range(ns[0], ns[-1] + 1)):
            head += f" (sizes {ns[0]}..{ns[-1]})"
        elif ns:
            head += f" (sizes {', '.join(map(str, ns))})"
        if self.violations:
            head += " [" + "; ".join(self.violations[:5])
            if len(self.violations) > 5:
                head += f"; ... {len(self.violations) - 5} more"
            head += "]"
        return head


__all__ = ["CheckReport"]
