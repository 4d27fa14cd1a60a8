"""Full result audit — trust, but verify.

:func:`audit_result` checks a :class:`CliqueResult` against its input
graph from first principles: every reported set is a maximal clique, no
duplicates, each clique's provenance tag is the recursion level that
must have produced it, and (optionally, expensive) the output is
*complete* — every maximal clique of the graph is present, established
with an independent in-library enumeration.

This is the function a downstream user runs once on their own data to
convince themselves of the installation, and the deep end of the test
suite's cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.feasibility import cut
from repro.core.result import CliqueResult
from repro.graph.adjacency import Graph, Node
from repro.graph.views import induced_subgraph
from repro.mce.tomita import tomita
from repro.mce.verify import find_extension


@dataclass
class AuditReport:
    """Outcome of :func:`audit_result`; empty ``problems`` means clean."""

    problems: list[str] = field(default_factory=list)
    checked_cliques: int = 0
    completeness_checked: bool = False

    @property
    def ok(self) -> bool:
        """Whether every executed check passed."""
        return not self.problems


def audit_result(
    graph: Graph, result: CliqueResult, check_completeness: bool = True
) -> AuditReport:
    """Verify ``result`` against ``graph``; return the audit report.

    Parameters
    ----------
    graph:
        The graph the result was computed from (unmodified).
    result:
        The driver output under audit.
    check_completeness:
        Also re-enumerate the graph independently and compare as sets.
        Skippable because it costs a full exact MCE run.
    """
    report = AuditReport()
    seen: set[frozenset] = set()
    for clique in result.cliques:
        report.checked_cliques += 1
        if clique in seen:
            report.problems.append(f"duplicate clique {_show(clique)}")
            continue
        seen.add(clique)
        if not clique:
            report.problems.append("empty clique reported")
            continue
        if not graph.is_clique(clique):
            report.problems.append(f"not a clique: {_show(clique)}")
            continue
        witness = find_extension(graph, clique)
        if witness is not None:
            report.problems.append(
                f"not maximal: {_show(clique)} extendable by {witness!r}"
            )

    _check_provenance(graph, result, report)

    if check_completeness:
        report.completeness_checked = True
        expected = set(tomita(graph))
        missing = expected - seen
        extra = seen - expected
        if missing:
            report.problems.append(
                f"{len(missing)} maximal cliques missing, e.g. "
                f"{_show(next(iter(missing)))}"
            )
        if extra:
            report.problems.append(
                f"{len(extra)} unexpected sets reported, e.g. "
                f"{_show(next(iter(extra)))}"
            )
    return report


def _check_provenance(
    graph: Graph, result: CliqueResult, report: AuditReport
) -> None:
    """Each provenance tag must be the level that produced the clique.

    A clique is found at the first recursion level at which one of its
    members is feasible: every member is a hub, and so still present, at
    all shallower levels.  A clique with no member ever feasible comes
    from the exact fallback on the residual core.
    """
    if set(result.provenance) != set(result.cliques):
        report.problems.append("provenance keys do not match the clique list")
        return
    feasible_at = _feasible_levels(graph, result.m)
    for clique, level in result.provenance.items():
        expected = min(
            (feasible_at[node] for node in clique if node in feasible_at),
            default=None,
        )
        if expected is None or level == expected:
            continue
        if level > expected:
            problem = f"contains a feasible node of level {expected}"
        else:
            problem = f"without feasible node (first at level {expected})"
        report.problems.append(f"level-{level} clique {problem}: {_show(clique)}")


def _feasible_levels(graph: Graph, m: int) -> dict[Node, int]:
    """The recursion level at which each node is feasible.

    Walks the reference ``cut`` / ``induced_subgraph`` recursion.  Nodes
    of a residual core that never becomes feasible get the level of the
    exact fallback.
    """
    levels: dict[Node, int] = {}
    current = graph
    level = 0
    while current.num_nodes > 0:
        feasible, hubs = cut(current, m)
        if not feasible:
            levels.update(dict.fromkeys(current.nodes(), level))
            break
        levels.update(dict.fromkeys(feasible, level))
        if not hubs:
            break
        current = induced_subgraph(current, hubs)
        level += 1
    return levels


def _show(clique: frozenset) -> str:
    """Short deterministic rendering of a clique for messages."""
    members = sorted(map(str, clique))
    if len(members) > 8:
        return "{" + ", ".join(members[:8]) + f", ... ({len(members)} nodes)}}"
    return "{" + ", ".join(members) + "}"
