"""Graphviz DOT export for graphs and finite groupoids.

Output is deterministic: nodes and edges appear in the sorted order the
underlying structures already maintain, and node identifiers are generated
positionally (``n0``, ``n1``, ...) so arbitrary vertex labels never have to
be valid DOT identifiers.
"""

from .graphs import FinGraph

__all__ = ["graph_dot", "fin_groupoid_dot"]


def _esc(x):
    s = str(x)
    return s.replace("\\", "\\\\").replace('"', '\\"')


def graph_dot(g, name="G"):
    """Render a graph as an undirected DOT document.

    The basepoint, when present, is drawn with a doubled outline.  Parallel
    edges and loops come out as-is; edge labels carry the edge ids.
    """
    if not isinstance(g, FinGraph):
        raise TypeError("graph_dot expects a FinGraph")
    index = {v: i for i, v in enumerate(g.vertices)}
    lines = ["graph \"%s\" {" % _esc(name)]
    for v in g.vertices:
        extra = ", peripheries=2" if v == g.basepoint else ""
        lines.append('  n%d [label="%s"%s];' % (index[v], _esc(v), extra))
    for eid, u, w in g.edges:
        lines.append('  n%d -- n%d [label="%s"];'
                     % (index[u], index[w], _esc(eid)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def fin_groupoid_dot(q, name="G"):
    """Render a finite groupoid as a directed DOT document.

    Identity loops are suppressed; every other morphism becomes one labelled
    arrow.
    """
    index = {o: i for i, o in enumerate(q.objects)}
    idents = set(q.ident.values())
    lines = ["digraph \"%s\" {" % _esc(name)]
    for o in q.objects:
        lines.append('  n%d [label="%s"];' % (index[o], _esc(o)))
    for m in q.morphisms:
        if m in idents:
            continue
        lines.append('  n%d -> n%d [label="%s"];'
                     % (index[q.src[m]], index[q.dst[m]], _esc(m)))
    lines.append("}")
    return "\n".join(lines) + "\n"
