"""The mutation ledger: small breaks of the checks in ``src/apx`` and of
the second derivations the tests keep beside it (the matroid tables in
``tests/matroid_tables.py``), each with the tests that must fail once it
is applied.

A mutant replaces one exact snippet of one file, which must occur there
exactly once (``tests/test_mutation_ledger.py`` checks this on every
test run).  ``mutants/run.py`` applies each mutant to a copy of the
tree and runs its tests; a mutant is killed when every one of them
fails.  A mutant that survives marks a check that no test can see
break (mutation testing; DeMillo, Lipton and Sayward 1978).
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the root


MATROID = "src/apx/matroid.py"
TABLES = "tests/matroid_tables.py"
POLYTOPE = "src/apx/polytope.py"
CLI = "src/apx/cli.py"
SUBDIVISION = "src/apx/subdivision.py"
CELLANALYSIS = "src/apx/cellanalysis.py"
GRAPHCORE = "src/apx/graphcore.py"
EXACTLIN = "src/apx/exactlin.py"
VERIFY = "src/apx/verify.py"
WALKED = "tests/test_matroid.py::test_walked_tables_match_per_subset_definitions"
CERTIFICATE = "tests/test_matroid.py::test_certificate_refuses"
POTENTIAL = "tests/test_polytope.py::test_potential_search_matches_the_cone"
MEMOISED = "tests/test_cli.py::test_memoised_leaf_tuples_write_the_bytes_of_json_dump"
FROM_FACETS = "tests/test_subdivision.py::test_cells_from_facets_are_the_lower_faces_of_the_lift"
REFUSES = "tests/test_subdivision.py::test_facet_correspondence_refuses"
PRODUCT = "tests/test_subdivision.py::test_product_correspondence_refuses"
LADDER = "tests/test_polytope.py::test_placing_oracle_matches_the_reference_on_the_ladder"
DRAWN = "tests/test_polytope.py::test_placing_oracle_matches_the_reference_on_drawn_points"

MUTANTS = (
    Mutant(
        "matroid tables: drop the downward-closure test",
        TABLES,
        "    if unclosed:\n",
        "    if False:\n",
        (
            "tests/test_matroid.py::test_axiom_check_matches_exchange_on_every_small_family[2]",
            "tests/test_matroid.py::test_axiom_check_matches_the_scalar_reference[5]",
            "tests/test_matroid.py::test_axiom_check_on_a_17_element_graphic_family",
        ),
    ),
    Mutant(
        "matroid tables: drop the submodularity pair test",
        TABLES,
        "    if first is not None:\n",
        "    if False:\n",
        (
            "tests/test_matroid.py::test_axiom_check_rejects_downward_closed_non_matroid",
            "tests/test_matroid.py::test_axiom_check_matches_exchange_on_every_small_family[3]",
            "tests/test_matroid.py::test_axiom_check_matches_the_scalar_reference[6]",
        ),
    ),
    Mutant(
        "matroid tables: shift the pair test by 2^b instead of 2^a",
        TABLES,
        "~((spans[b] & elements[a]) >> (1 << a))",
        "~((spans[b] & elements[a]) >> (1 << b))",
        (
            "tests/test_matroid.py::test_axiom_check_matches_exchange_on_every_small_family[3]",
            "tests/test_matroid.py::test_axiom_check_matches_the_scalar_reference[7]",
        ),
    ),
    Mutant(
        "matroid tables: skip the gcd reduction in the kernel walk",
        TABLES,
        "            a = [x // g for x in v] if g > 1 else v\n",
        "            a = v\n",
        ("tests/test_matroid.py::test_cut_divides_out_a_common_factor",),
    ),
    Mutant(
        "matroid tables: keep the pivot vector in the kernel walk's basis",
        TABLES,
        "    out = basis[:p]\n",
        "    out = basis[: p + 1]\n",
        (
            "tests/test_matroid.py::test_point_matroid_basics",
            "tests/test_matroid.py::test_cut_keeps_a_primitive_annihilator_basis",
            "tests/test_matroid.py::test_walked_tables_match_per_subset_definitions[K5]",
            "tests/test_matroid.py::test_morphism_c5_cells",
        ),
    ),
    Mutant(
        "matroid tables: rank a leaf as if its point always raised the rank",
        TABLES,
        "d + 1 - len(basis) + grows == points + 1",
        "d + 1 - len(basis) + 1 == points + 1",
        (f"{WALKED}[K5]", f"{WALKED}[running]"),
    ),
    Mutant(
        "matroid tables: graphic leaf acyclic without joining two components",
        TABLES,
        "independent[mask | last] = cycles == 0 and cu != cv",
        "independent[mask | last] = cycles == 0",
        (f"{WALKED}[K5]", f"{WALKED}[W6]"),
    ),
    Mutant(
        "matroid tables: point walk without the contracted pair",
        TABLES,
        "    walk = [n - 1, *range(n - 1)]\n",
        "    walk = list(range(n - 1))\n",
        (f"{WALKED}[K5]", f"{WALKED}[running]"),
    ),
    Mutant(
        "matroid tables: drop the table comparison",
        TABLES,
        "    if independent != graphic:\n",
        "    if False:\n",
        ("tests/test_matroid.py::test_morphism_names_a_flipped_point_mask",),
    ),
    Mutant(
        "matroid: certificate without the level condition",
        MATROID,
        "        if gamma[i] - gamma[j] != -1:\n",
        "        if False:\n",
        (
            f"{CERTIFICATE}_a_point_off_level_minus_one",
            "tests/test_verify.py::test_matroid_morphism_names_the_cell_point_and_premise",
        ),
    ),
    Mutant(
        "matroid: certificate without the distinct-edge test",
        MATROID,
        "        if f in owner:\n",
        "        if False:\n",
        (f"{CERTIFICATE}_a_repeated_point",),
    ),
    Mutant(
        "matroid: certificate accepts a cell without the contracted pair",
        MATROID,
        "    if not cell.contains_contracted_pair(e):\n",
        "    if False:\n",
        (f"{CERTIFICATE}_a_cell_without_the_pair",),
    ),
    Mutant(
        "exactlin: leave a zero-entry row unscaled when pv != +-prev",
        EXACTLIN,
        "                    m[i] = [pv * a // prev for a in m[i]]\n",
        "                    pass\n",
        ("tests/test_exactlin.py::test_rank_nullity",),
    ),
    Mutant(
        "exactlin: leave a zero-entry row unnegated when pv == -prev",
        EXACTLIN,
        "                    m[i] = [-a for a in m[i]]\n",
        "                    pass\n",
        ("tests/test_exactlin.py::test_rank_nullity",),
    ),
    Mutant(
        "polytope: potential search without the closed-component cut",
        POLYTOPE,
        "            elif c & act:\n",
        "            elif True:\n",
        (
            f"{POTENTIAL}_on_named_graphs[W10]",
            f"{POTENTIAL}_on_drawn_graphs",
            "tests/test_polytope.py::test_every_leaf_of_the_potential_search_is_a_facet[W10]",
        ),
    ),
    Mutant(
        "polytope: potential window narrowed to {p, p + 1}",
        POLYTOPE,
        "range(max(near) - 1, min(near) + 2)",
        "range(max(near), min(near) + 2)",
        (
            "tests/test_polytope.py::test_tree_facet_counts",
            "tests/test_polytope.py::test_cycle_facet_counts[5]",
            f"{POTENTIAL}_on_named_graphs[C12]",
        ),
    ),
    Mutant(
        "polytope: potential support with the arc reversed",
        POLYTOPE,
        "                m |= to_k\n",
        "                m |= from_k\n",
        (
            "tests/test_polytope.py::test_facets_edge_graph",
            f"{POTENTIAL}_on_named_graphs[K7]",
        ),
    ),
    Mutant(
        "polytope: file a horizon face without the one-visible-one-other test",
        POLYTOPE,
        "            if common.bit_count() != 2 or seen.bit_count() != 1:\n",
        "            if False:\n",
        ("tests/test_polytope.py::test_placing_raises_when_no_facet_holds_a_boundary_face",),
    ),
    Mutant(
        "polytope: treat a coplanar facet as hidden",
        POLYTOPE,
        "            if p & zero:\n",
        "            if False:\n",
        (
            "tests/test_polytope.py::test_volume_with_interior_and_boundary_points",
            f"{LADDER}[running]",
            DRAWN,
        ),
    ),
    Mutant(
        "polytope: leave the new point out of a new facet's tight rows",
        POLYTOPE,
        "(mq & mp) | bit",
        "mq & mp",
        (
            "tests/test_polytope.py::test_volume_c4_c5",
            f"{LADDER}[W7]",
            DRAWN,
        ),
    ),
    Mutant(
        "polytope: keep interior ridges as boundary faces",
        POLYTOPE,
        "                    if pop(ridge, None) is None:\n",
        "                    if True:\n",
        (
            "tests/test_polytope.py::test_volume_c4_c5",
            "tests/test_polytope.py::test_placing_volumes_match_determinants_on_graphs[K4]",
            "tests/test_polytope.py::test_placing_volumes_match_determinants_on_random_points",
        ),
    ),
    Mutant(
        "polytope: place a point set whose affine basis is short",
        POLYTOPE,
        "    if len(elimination.basis) < len(elimination.inverse):\n",
        "    if False:\n",
        (
            "tests/test_polytope.py::test_volume_of_a_set_that_does_not_span_is_zero",
            "tests/test_polytope.py::test_volume_is_zero_exactly_when_the_points_do_not_span",
        ),
    ),
    Mutant(
        "polytope: drop the divisibility check of the volume ratio",
        POLYTOPE,
        "                if rem:\n",
        "                if False:\n",
        ("tests/test_polytope.py::test_placing_raises_on_an_inexact_volume_ratio",),
    ),
    Mutant(
        "polytope: drop the seed-facet orientation",
        POLYTOPE,
        "        sign = 1 if det > 0 else -1\n",
        "        sign = 1\n",
        ("tests/test_polytope.py::test_seed_basis_skips_dependent_rows",),
    ),
    Mutant(
        "subdivision: cells without the merged-pair clause",
        SUBDIVISION,
        "if a == b or (a, b) in support",
        "if (a, b) in support",
        (
            f"{FROM_FACETS}[running]",
            "tests/test_subdivision.py::test_cells_contain_contracted_pair_and_h_zero",
        ),
    ),
    Mutant(
        "subdivision: cell support mapped with the arc reversed",
        SUBDIVISION,
        "a == b or (a, b) in support",
        "a == b or (b, a) in support",
        (
            f"{FROM_FACETS}[W7]",
            "tests/test_subdivision.py::test_cells_from_facets_match_the_lift_on_drawn_graphs",
        ),
    ),
    Mutant(
        "subdivision: cover without its volume test",
        SUBDIVISION,
        "    if total != volume:\n",
        "    if False:\n",
        ("tests/test_cli.py::test_subdivide_proof_refuses_a_missing_cell",),
    ),
    Mutant(
        "subdivision: lower faces without the support test",
        SUBDIVISION,
        "        if not verify_cell_support(config, e, cell):\n",
        "        if False:\n",
        (
            "tests/test_cli.py::test_subdivide_proof_refuses_a_shifted_normal",
            "tests/test_cli.py::test_verify_fails_a_cell_that_is_not_full_dimensional",
        ),
    ),
    Mutant(
        "subdivision: lower faces without the repeated-normal test",
        SUBDIVISION,
        "        if j != i:\n",
        "        if False:\n",
        ("tests/test_cli.py::test_subdivide_proof_refuses_a_repeated_cell",),
    ),
    Mutant(
        "subdivision: cover without the full-dimension statement",
        SUBDIVISION,
        "        if not cell_volume:\n",
        "        if False:\n",
        ("tests/test_cli.py::test_subdivide_and_verify_refuse_a_pair_only_segment",),
    ),
    Mutant(
        "subdivision: facet correspondence without the support comparison",
        SUBDIVISION,
        "        if support != facet.support:\n",
        "        if False:\n",
        (f"{REFUSES}[support]",),
    ),
    Mutant(
        "subdivision: facet correspondence without the projected-normal comparison",
        SUBDIVISION,
        "        if normal != facet.normal:\n",
        "        if False:\n",
        (f"{REFUSES}[normal]",),
    ),
    Mutant(
        "subdivision: facet correspondence without the repeated-support test",
        SUBDIVISION,
        "        if support in seen:\n",
        "        if False:\n",
        (f"{REFUSES}[repeated]",),
    ),
    Mutant(
        "subdivision: product correspondence without the repeated-pair test",
        SUBDIVISION,
        "        if key in used:\n",
        "        if False:\n",
        (f"{PRODUCT}[repeated]",),
    ),
    Mutant(
        "subdivision: product correspondence without the side-projection test",
        SUBDIVISION,
        "            if support not in supports:\n",
        "            if False:\n",
        (f"{PRODUCT}[side]",),
    ),
    Mutant(
        "subdivision: product correspondence without the count test",
        SUBDIVISION,
        "    if len(cells) != len(f1) * len(f2):\n",
        "    if False:\n",
        (f"{PRODUCT}[count]",),
    ),
    Mutant(
        "graphcore: split at an edge that counts no node left without an edge",
        GRAPHCORE,
        "    if first == outside:\n",
        "    if len(rest.components) < 2:\n",
        (
            "tests/test_subdivision.py::"
            "test_product_correspondence_runs_exactly_when_the_contracted_nodes_cut",
        ),
    ),
    Mutant(
        "cellanalysis: drop the corank-2 parity check",
        CELLANALYSIS,
        "        if twice % 2 or twice <= 0:\n",
        "        if twice <= 0:\n",
        ("tests/test_cellanalysis.py::test_corank2_closed_form_needs_an_even_numerator",),
    ),
    Mutant(
        "subdivision: order the contracted edge first in the record's forest",
        SUBDIVISION,
        "key=lambda f: (f in arcs and f[::-1] in arcs, f)",
        "key=lambda f: (not (f in arcs and f[::-1] in arcs), f)",
        ("tests/test_cellanalysis.py::test_cell_properties_corank2_cell_basis",),
    ),
    Mutant(
        "graphcore: plain-cycle test without its one cycle through every edge",
        GRAPHCORE,
        "            and len(self.cycles) == 1\n"
        "            and len(self.cycles[0]) == len(self.tree) + 1\n",
        "",
        (
            "tests/test_cellanalysis.py::test_subset_dependent_but_not_minimal",
            "tests/test_cellanalysis.py::test_classify_special_graphs",
        ),
    ),
    Mutant(
        "cellanalysis: only-directed-cycle test without the k2 -> k1 rename",
        CELLANALYSIS,
        "    merged = [(k1 if i == k2 else i, k1 if j == k2 else j)"
        " for i, j in arcs - {p, q}]\n",
        "    merged = list(arcs - {p, q})\n",
        ("tests/test_cellanalysis.py::test_only_directed_cycle_flag_matches_the_cycle_enumeration",),
    ),
    Mutant(
        "cellanalysis: every subset passes as closed under the swap",
        CELLANALYSIS,
        "            closed = False\n",
        "            closed = True\n",
        ("tests/test_cellanalysis.py::test_closed_under_swap_refuses_an_arc_whose_swap_is_missing",),
    ),
    Mutant(
        "cellanalysis: every subset passes as spanning all nodes",
        CELLANALYSIS,
        "    spans = rec.vertices == set(range(g.node_count))\n",
        "    spans = True\n",
        ("tests/test_cellanalysis.py::test_spans_all_nodes_refuses_an_uncovered_node",),
    ),
    Mutant(
        "cellanalysis: every subset passes as balanced",
        CELLANALYSIS,
        "    balanced = all(len(c - {edge(*e)}) % 2 == 0 for c in cycles)\n",
        "    balanced = True\n",
        (
            "tests/test_graphcore.py::test_is_balanced_cycle",
            "tests/test_graphcore.py::test_is_balanced_subgraph",
            "tests/test_graphcore.py::test_balanced_subgraph_matches_all_cycles_definition",
        ),
    ),
    Mutant(
        "cellanalysis: count no odd basis cycle",
        CELLANALYSIS,
        "    odd = sum(len(c) % 2 for c in cycles)\n",
        "    odd = 0\n",
        ("tests/test_cellanalysis.py::test_cell_properties_corank2_cell_basis",),
    ),
    Mutant(
        "cellanalysis: every plain cycle is classed odd",
        CELLANALYSIS,
        '        kind = "even_cycle" if len(g.edges) % 2 == 0 else "odd_cycle"\n',
        '        kind = "odd_cycle"\n',
        ("tests/test_cellanalysis.py::test_classify_special_graphs",),
    ),
    Mutant(
        "graphcore: balanced circuit rank without the contracted edge",
        GRAPHCORE,
        "cyclomatic_number(chosen + [e])",
        "cyclomatic_number(chosen)",
        ("tests/test_graphcore.py::test_balanced_circuit_rank_against_brute_force",),
    ),
    Mutant(
        "graphcore: balanced circuit rank counts colourings that split e's ends",
        GRAPHCORE,
        "        color[k2] = color[k1]\n",
        "        color[k2] = 1 - color[k1]\n",
        (
            "tests/test_verify.py::"
            "test_full_passes_where_a_balanced_subgraph_without_e_has_more_cycles[K33-0,3]",
            "tests/test_graphcore.py::test_balanced_circuit_rank_against_brute_force",
        ),
    ),
    Mutant(
        "cellanalysis: analyse a cell of volume 0",
        CELLANALYSIS,
        "    if not volume:\n",
        "    if False:\n",
        (
            "tests/test_cellanalysis.py::"
            "test_analysis_refuses_a_cell_that_does_not_span_at_every_corank",
            "tests/test_cli.py::test_verify_fails_a_cell_that_is_not_full_dimensional",
        ),
    ),
    Mutant(
        "cellanalysis: drop the circuit-versus-plain-cycle check",
        CELLANALYSIS,
        "    if minimal != graph_side:\n",
        "    if False:\n",
        ("tests/test_cellanalysis.py::test_graph_side_faults_raise_theorem_violations",),
    ),
    Mutant(
        "subdivision: drop the corank-versus-cyclomatic-number check",
        SUBDIVISION,
        "    if value != rec.cyclomatic:\n",
        "    if False:\n",
        (
            "tests/test_cellanalysis.py::test_graph_side_faults_raise_theorem_violations",
            "tests/test_verify.py::test_theorem_checks_survive_python_O",
        ),
    ),
    Mutant(
        "subdivision: drop the dimension-formula check",
        SUBDIVISION,
        "    if affine_dim != formula:\n",
        "    if False:\n",
        (
            "tests/test_cellanalysis.py::"
            "test_dimension_formula_refuses_a_record_with_an_extra_vertex",
        ),
    ),
    Mutant(
        "cellanalysis: drop the missing-cycle-edge check",
        CELLANALYSIS,
        "            if (v, u) not in arcs:\n",
        "            if False:\n",
        ("tests/test_cellanalysis.py::test_arc_signs_refuse_a_cycle_edge_missing_from_the_cell",),
    ),
    Mutant(
        "cellanalysis: drop the closed-form-versus-oracle check",
        CELLANALYSIS,
        "    if result != oracle:\n",
        "    if False:\n",
        ("tests/test_cellanalysis.py::test_closed_form_refuses_an_oracle_off_by_one",),
    ),
    Mutant(
        "cellanalysis: drop the corank-1 signature check",
        CELLANALYSIS,
        "    if (pos, neg, zero) != expected:\n",
        "    if False:\n",
        ("tests/test_cellanalysis.py::test_graph_side_faults_raise_theorem_violations",),
    ),
    Mutant(
        "subdivision: simplicial cells pass the transfer whatever their facets",
        SUBDIVISION,
        "        if cell.is_simplicial() and len(facet.support) != len(facet.normal):\n",
        "        if False:\n",
        (
            "tests/test_subdivision.py::"
            "test_simpliciality_transfer_refuses_a_non_simplicial_facet",
            "tests/test_verify.py::test_simpliciality_transfer_names_the_cell_and_the_facet",
        ),
    ),
    Mutant(
        "cellanalysis: trees and even cycles pass as all simplicial",
        CELLANALYSIS,
        "all_simplicial=all(c.is_simplicial() for c in cells)",
        "all_simplicial=True",
        (
            "tests/test_cellanalysis.py::"
            "test_tree_and_even_cycle_classes_refuse_a_non_simplicial_cell",
        ),
    ),
    Mutant(
        "verify: cells left unanalysed pass the max-corank check",
        VERIFY,
        "value == rank and not missing",
        "value == rank",
        ("tests/test_verify.py::test_failed_cell_analyses_are_failing_evidence",),
    ),
    Mutant(
        "verify: max corank passes whatever the balanced circuit rank",
        VERIFY,
        "value == rank and not missing",
        "not missing",
        (
            "tests/test_verify.py::"
            "test_max_corank_check_refuses_a_balanced_circuit_rank_off_by_one",
        ),
    ),
    Mutant(
        "verify: cells left unanalysed pass the odd-cycle verdict",
        VERIFY,
        "not missing and all(r.circuit for r in reports)",
        "all(r.circuit for r in reports)",
        ("tests/test_verify.py::test_failed_cell_analyses_are_failing_evidence",),
    ),
    Mutant(
        "cli: drop sorted on the report's top-level keys",
        CLI,
        "    for key, value in sorted(payload.items()):\n",
        "    for key, value in payload.items():\n",
        (
            "tests/test_cli.py::test_reports_are_the_bytes_of_json_dump[facets]",
            "tests/test_cli.py::test_writer_matches_json_dump_on_drawn_payloads",
        ),
    ),
    Mutant(
        "cli: memoise tuples that hold bools",
        CLI,
        "        if type(v) is not int and type(v) is not str:\n",
        "        if not isinstance(v, (int, str)):\n",
        (f"{MEMOISED}[bool-next-to-int]",),
    ),
    Mutant(
        "cli: drop sorted on nested keys",
        CLI,
        "            for k, v in sorted(value.items())\n",
        "            for k, v in value.items()\n",
        (
            "tests/test_cli.py::test_reports_are_the_bytes_of_json_dump[subdivide]",
            "tests/test_cli.py::test_writer_matches_json_dump_on_drawn_payloads",
        ),
    ),
)
