"""Acceptance suite: one test per criterion, each printing a PASS line
with its timing.  Exact arithmetic throughout; no tolerances anywhere."""

import random
import time

import pytest

from conftest import (
    CORANK2_CELL_ARCS,
    cell_volume,
    cells_of,
    cycle_graph,
    running_example,
    random_connected_graph,
    random_tree,
)
from matroid_tables import exhaustive_morphism

from apx.cellanalysis import (
    classify_special_graphs,
    closed_form_volume,
    corank1_signature,
    is_circuit,
    verify_cell_properties,
)
from apx.graphcore import balanced_circuit_rank, contract_edge
from apx.matroid import certify_morphism
from apx.polytope import (
    build_configuration,
    enumerate_facets,
    normalized_volume,
    normalized_volume_of_points,
)
from apx.subdivision import (
    cell_record,
    cells_with_facets,
    check_simpliciality_transfer,
    corank,
    facet_correspondence,
    product_correspondence,
    verify_cell_support,
)

CORPUS_SEED = 20260808
CORPUS_SIZE = 50


def announce(criterion: str, started: float, detail: str = "") -> None:
    elapsed = time.monotonic() - started
    suffix = f" ({detail})" if detail else ""
    print(f"PASS {criterion} in {elapsed:.2f}s{suffix}")


@pytest.fixture(scope="module")
def corpus():
    """50 random connected graphs with n <= 6, |E| <= 12, each with a
    random contraction edge, and everything expensive precomputed."""
    rng = random.Random(CORPUS_SEED)
    started = time.monotonic()
    records = []
    for _ in range(CORPUS_SIZE):
        g = random_connected_graph(rng, max_nodes=7, max_edges=12)
        e = rng.choice(g.sorted_edges())
        pairs = cells_with_facets(g, e)
        cells = [cell for cell, _ in pairs]
        contracted, _ = contract_edge(g, e)
        facet_count = len(enumerate_facets(contracted))
        cell_volumes = [cell_volume(c) for c in cells]
        polytope_volume = normalized_volume(build_configuration(g))
        records.append(
            {
                "graph": g,
                "edge": e,
                "pairs": pairs,
                "cells": cells,
                "facet_count": facet_count,
                "cell_volumes": cell_volumes,
                "polytope_volume": polytope_volume,
            }
        )
    return {"records": records, "elapsed": time.monotonic() - started}


def test_criterion_1_c4():
    started = time.monotonic()
    g = cycle_graph(4)
    cells = cells_of(g, (0, 3))
    assert len(cells) == 6
    total = 0
    for cell in cells:
        assert cell.is_simplicial()
        nvol = closed_form_volume(cell.record(), (0, 3), cell_volume(cell))
        assert nvol == 2
        total += nvol
    assert total == 12
    assert normalized_volume(build_configuration(g)) == 12
    assert time.monotonic() - started < 1.0
    announce("criterion-1 (C4: 6 simplicial cells of volume 2, total 12)", started)


def test_criterion_2_c5():
    started = time.monotonic()
    g = cycle_graph(5)
    cells = cells_of(g, (0, 4))
    assert len(cells) == 6
    total = 0
    for cell in cells:
        assert len(cell.points) == 6
        rec = cell_record(cell.points, cell.dim)
        assert corank(rec, (0, 4)) == 1
        assert is_circuit(rec, (0, 4))
        assert corank1_signature(rec, (0, 4)) == (3, 3, 0)
        nvol = closed_form_volume(rec, (0, 4), cell_volume(cell))
        assert nvol == 5
        total += nvol
    assert total == 30
    assert normalized_volume(build_configuration(g)) == 30
    assert time.monotonic() - started < 1.0
    announce("criterion-2 (C5: 6 corank-1 circuit cells of volume 5, total 30)", started)


def test_criterion_3_running_example():
    started = time.monotonic()
    g = running_example()
    e = (0, 3)
    cells = cells_of(g, e)

    # (a) product correspondence with G1' = C3 (6 facets).
    f1, f2 = product_correspondence(g, e, cells)
    assert len(f1) == 6
    assert len(cells) == 6 * len(f2)

    # (b) maximum corank equals the balanced circuit rank, both 2.
    assert max(corank(cell_record(c.points, c.dim), e) for c in cells) == 2
    assert balanced_circuit_rank(g, e) == 2

    # (c) the nine-point corank-2 cell: closed form == oracle.
    (deep_cell,) = [c for c in cells if frozenset(c.points) == frozenset(CORANK2_CELL_ARCS)]
    assert len(deep_cell.points) == 9
    rec = cell_record(deep_cell.points, deep_cell.dim)
    assert corank(rec, e) == 2
    closed = closed_form_volume(rec, e, cell_volume(deep_cell))
    assert closed == normalized_volume_of_points(rec.vectors) == 4
    assert time.monotonic() - started < 30.0
    announce(
        "criterion-3 (running example: product bijection, max corank 2, corank-2 volume)",
        started,
        f"{len(cells)} cells = 6 x {len(f2)}",
    )


def test_criterion_4_bijection_on_corpus(corpus):
    started = time.monotonic()
    for record in corpus["records"]:
        assert len(record["cells"]) == record["facet_count"]
        assert sum(record["cell_volumes"]) == record["polytope_volume"]
    assert corpus["elapsed"] < 300.0
    announce(
        "criterion-4 (cell/facet bijection and volume additivity on 50 random graphs)",
        started,
        f"corpus built in {corpus['elapsed']:.1f}s",
    )


def test_criterion_5_invariants_on_corpus(corpus):
    started = time.monotonic()
    from fractions import Fraction

    for record in corpus["records"]:
        g, e, cells = record["graph"], record["edge"], record["cells"]
        facet_correspondence(g, e, record["pairs"])
        config = build_configuration(g)
        for cell, oracle in zip(cells, record["cell_volumes"]):
            assert cell.contains_contracted_pair(e)
            full_gamma = (Fraction(0),) + tuple(cell.gamma)
            assert full_gamma[e[0]] == full_gamma[e[1]]
            assert verify_cell_support(config, e, cell)
            rec = cell_record(cell.points, cell.dim)
            assert verify_cell_properties(g, e, rec).all_pass()
            value = corank(rec, e)  # asserts = cyclomatic
            if value <= 2:
                assert closed_form_volume(rec, e, oracle) == oracle
        check_simpliciality_transfer(record["pairs"])
    announce("criterion-5 (full invariant suite on the corpus, zero failures)", started)


def all_circuits(cells, e):
    return all(is_circuit(cell_record(c.points, c.dim), e) for c in cells)


def test_criterion_6_special_graphs():
    started = time.monotonic()
    rng = random.Random(CORPUS_SEED + 1)
    for _ in range(10):
        tree = random_tree(rng, max_nodes=8)
        e = rng.choice(tree.sorted_edges())
        cells = cells_of(tree, e)
        report = classify_special_graphs(tree, cells, all_circuits(cells, e))
        assert report.graph_class == "tree" and report.all_simplicial

    c6 = cycle_graph(6)
    cells = cells_of(c6, (0, 5))
    report = classify_special_graphs(c6, cells, all_circuits(cells, (0, 5)))
    assert report.graph_class == "even_cycle" and report.all_simplicial

    c7 = cycle_graph(7)
    cells = cells_of(c7, (0, 6))
    report = classify_special_graphs(c7, cells, all_circuits(cells, (0, 6)))
    assert report.graph_class == "odd_cycle" and report.all_circuits
    assert time.monotonic() - started < 60.0
    announce("criterion-6 (trees simplicial, C6 triangulation, C7 circuits)", started)


def test_criterion_7_matroid_morphism():
    started = time.monotonic()
    instances = [
        (cycle_graph(4), (0, 3)),
        (cycle_graph(5), (0, 4)),
    ]
    for g, e in instances:
        for cell in cells_of(g, e):
            certify_morphism(cell, e)
            exhaustive_morphism(cell, e)
    running_cells = cells_of(running_example(), (0, 3))
    (deep_cell,) = [c for c in running_cells if frozenset(c.points) == frozenset(CORANK2_CELL_ARCS)]
    assert len(certify_morphism(deep_cell, (0, 3))) == 8
    report = exhaustive_morphism(deep_cell, (0, 3))
    assert report.subsets_checked == 256
    assert time.monotonic() - started < 60.0
    announce(
        "criterion-7 (matroid morphism by certificate and exhaustive tables on C4, C5, "
        "and the 9-point cell)",
        started,
    )


def test_criterion_8_oracle_independence(corpus):
    started = time.monotonic()
    for record in corpus["records"]:
        # Two independent computations: placing triangulation of the whole
        # polytope vs the sum over the lower-hull subdivision's cells.
        assert record["polytope_volume"] == sum(record["cell_volumes"])
        assert record["polytope_volume"] > 0
    announce("criterion-8 (triangulation volume equals subdivision-sum volume)", started)
