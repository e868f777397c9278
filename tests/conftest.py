from pathlib import Path

import pytest

from dcbound.dcp import parse_dcp
from dcbound.program import parse_program

DATA = Path(__file__).parent / "data"


def load_dcp(name: str):
    return parse_dcp((DATA / name).read_text())


def load_prog(name: str):
    return parse_program((DATA / name).read_text())


@pytest.fixture
def data_dir() -> Path:
    return DATA


def simple_cycles(locations, edges):
    """All edge-level simple cycles of a directed multigraph, as tuples of
    edges: a test reference for rules stated over simple cycles.

    Each cycle is anchored at its smallest location and the interior visits
    no location twice, so parallel edges yield distinct cycles and every
    cycle appears exactly once. Starts are taken in location order and
    children in edge-id order. The count can be exponential in the size of
    the graph, so only small graphs belong here.
    """
    order = {loc: i for i, loc in enumerate(sorted(locations))}
    outgoing = {loc: [] for loc in order}
    for e in sorted(edges, key=lambda e: e.id):
        outgoing[e.source].append(e)

    cycles = []
    for start, s in order.items():
        path = []
        on_path = {start}
        work = [iter(outgoing[start])]
        while work:
            for e in work[-1]:
                if order[e.target] < s:
                    continue
                if e.target == start:
                    cycles.append(tuple(path + [e]))
                elif e.target not in on_path:
                    path.append(e)
                    on_path.add(e.target)
                    work.append(iter(outgoing[e.target]))
                    break
            else:
                work.pop()
                if path:
                    on_path.discard(path.pop().target)
    return cycles
