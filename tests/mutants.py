"""Mutants of src/byzgrad, each with the tests expected to kill it.

Each entry names a module of src/byzgrad, a source snippet that occurs in
it exactly once, the snippet's replacement, and the tests that fail once
the replacement is made. tests/test_mutants.py checks in tier-1 that every
snippet still occurs exactly once, so a refactor that rewrites a guarded
line has to update its entry here. EQUIVALENT lists mutants that no test
can kill, each with the reason its program behaves the same; they are
checked for their snippets too, and never run.

    python tests/mutants.py [name ...]

copies the repository to a temporary directory, checks that the named
tests pass there, then applies each mutant in turn and runs each of its
killers on its own with pytest. A mutant is killed only when every one of
its killers fails; otherwise it survived, and each killer that did not fail
is named. With no names it runs every mutant. The exit status is nonzero if
a mutant survives.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "byzgrad"


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # file name in src/byzgrad
    snippet: str
    replacement: str
    killers: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant(
        "cyclic-window-one-too-wide",
        "assignment.py",
        '(b"\\x01" * rho + bytes(n - rho))',
        '(b"\\x01" * (rho + 1) + bytes(n - rho))[:n]',
        (
            "tests/test_assignment.py::test_cyclic_three_workers_two_replicas",
            "tests/test_assignment.py::test_cyclic_column_and_row_sums",
            "tests/test_assignment.py::test_generators_equal_the_per_bit_oracles",
        ),
    ),
    Mutant(
        "fractional-group-starts-late",
        "assignment.py",
        "min(g, extra)",
        "min(g + 1, extra)",
        (
            "tests/test_assignment.py::test_fractional_pad_rule",
            "tests/test_assignment.py::test_generators_equal_the_per_bit_oracles",
        ),
    ),
    Mutant(
        "repair-takes-first-candidate",
        "assignment.py",
        "rng.choice(candidates)",
        "candidates[0]",
        ("tests/test_assignment.py::test_random_regular_equals_a_sample_per_column",),
    ),
    Mutant(
        "cyclic-rule-one-short",
        "assignment.py",
        'kind == "cyclic" and p + rho - 1 < n',
        'kind == "cyclic" and p + rho < n',
        ("tests/test_assignment.py::test_cyclic_feasible_exactly_when_windows_wrap",),
    ),
    Mutant(
        "samples-by-pool-walk-for-every-n",
        "field.py",
        "if n > setsize:",
        "if False:",
        ("tests/test_field.py::test_draw_samples_equals_the_stdlib_sample",),
    ),
    Mutant(
        "query-rows-unscaled",
        "checks.py",
        "tuple(ai * v % q for v in sample_row(ctx, column))",
        "tuple(v for v in sample_row(ctx, column))",
        (
            "tests/test_coding.py::test_closed_form_encoder_matches_solve_oracle",
            "tests/test_checks.py::test_encoding_check_runs_clean",
            "tests/test_harness.py::test_cli_verify_subcommand",
        ),
    ),
    Mutant(
        "sample-gets-previous-column-row",
        "coding.py",
        "for i, column in enumerate(zip(*a_mat.bits)):",
        "for i, column in enumerate(zip(*(row[-1:] + row[:-1] for row in a_mat.bits))):",
        (
            "tests/test_coding.py::test_encoding_matrix_worked_instance",
            "tests/test_coding.py::test_sample_row_equals_the_encoding_rows",
        ),
    ),
    Mutant(
        "class-samples-newest-first",
        "coding.py",
        "entry[1].append(i)",
        "entry[1].insert(0, i)",
        (
            "tests/test_coding.py::test_recorded_row_classes_equal_the_classes_of_w",
            "tests/test_coding.py::test_row_classes_and_gatherers_equal_the_oracles",
        ),
    ),
    Mutant(
        "classes-by-last-sample",
        "coding.py",
        "classes = tuple(tuple(samples) for _, samples in by_column.values())",
        "classes = tuple(sorted((tuple(samples) for _, samples in by_column.values()),"
        " key=lambda c: c[-1]))",
        (
            "tests/test_coding.py::test_recorded_row_classes_equal_the_classes_of_w",
            "tests/test_coding.py::test_row_classes_and_gatherers_equal_the_oracles",
        ),
    ),
    Mutant(
        "sample-row-drops-a-root",
        "coding.py",
        "others = [x for m, x in enumerate(eval_points) if m not in inside]",
        "others = [x for m, x in enumerate(eval_points) if m not in inside][1:]",
        (
            "tests/test_acceptance.py::test_criterion_8_mask_restriction_matches_rebuild",
            "tests/test_coding.py::test_closed_form_combining_vector_matches_group_inverse",
        ),
    ),
    Mutant(
        "vanishing-product-of-reversed-differences",
        "coding.py",
        "acc *= xj - xm",
        "acc *= xm - xj",
        (
            "tests/test_coding.py::test_sample_row_equals_the_encoding_rows",
            "tests/test_coding.py::test_closed_form_combining_vector_matches_group_inverse",
        ),
    ),
    Mutant(
        "point-weights-uninverted",
        "coding.py",
        "pow(_vanishing_products(q, eval_points, (j,))[j], -1, q)",
        "_vanishing_products(q, eval_points, (j,))[j]",
        (
            "tests/test_acceptance.py::test_criterion_5_vandermonde_closed_form_exact",
            "tests/test_coding.py::test_syndrome_weights_from_code_weights_match_fresh_inverse",
            "tests/test_coding.py::test_closed_form_combining_vector_matches_group_inverse",
        ),
    ),
    Mutant(
        "member-weight-scaled-by-w0",
        "coding.py",
        "start[j] if start else 1",
        "start[0] if start else 1",
        (
            "tests/test_coding.py::test_closed_form_combining_vector_matches_group_inverse",
            "tests/test_coding.py::test_syndrome_weights_from_code_weights_match_fresh_inverse",
            "tests/test_ecc_decoder.py::test_packed_decoder_matches_row_table_oracle",
        ),
    ),
    Mutant(
        "parser-skips-regularity",
        "assignment.py",
        'raise InvalidParamsError(f"assignment is not regular with replication {rho}")',
        "pass",
        (
            "tests/test_assignment.py::test_text_rejects_an_irregular_matrix",
            "tests/test_harness.py::test_assignment_file_must_fit_the_config",
            "tests/test_harness.py::test_replay_rejects_an_assignment_with_an_idle_worker",
        ),
    ),
    Mutant(
        "certificate-feasibility-off-by-one",
        "checks.py",
        'assignment_feasible("random", n, p, s + u)',
        'assignment_feasible("random", n - 1, p, s + u)',
        (
            "tests/test_acceptance.py::test_criterion_8_mask_restriction_matches_rebuild",
            "tests/test_harness.py::test_cli_verify_subcommand",
        ),
    ),
    Mutant(
        "prefix-index-off-by-one",
        "protocol.py",
        "diff = sums[hi] - sums[lo]",
        "diff = sums[hi] - sums[lo + 1]",
        ("tests/test_protocol.py::test_prefix_match_answers_equal_strided_slice",),
    ),
    Mutant(
        "is-prime-without-base-41",
        "field.py",
        "29, 31, 37, 41)",
        "29, 31, 37)",
        ("tests/test_field.py::test_strong_pseudoprime_to_bases_up_to_37_is_composite",),
    ),
    Mutant(
        "parity-columns-one-byte-short",
        "coding.py",
        "lane_bytes(q, len(avail))",
        "lane_bytes(q, len(avail)) - 1",
        ("tests/test_ecc_decoder.py::test_packed_decoder_at_the_carry_boundary",),
    ),
    Mutant(
        "layout-rows-in-class-order",
        "coding.py",
        "rows = tuple(packed[i] for i in ones + [c[0] for c in many])",
        "rows = tuple(packed[c[0]] for c in classes)",
        (
            "tests/test_coding.py::test_row_classes_and_gatherers_equal_the_oracles",
            "tests/test_coding.py::test_response_matrix_matches_dense_product",
        ),
    ),
    Mutant(
        "erased-columns-nonzero",
        "coding.py",
        "columns = [0] * len(eval_points)",
        "columns = [1] * len(eval_points)",
        (
            "tests/test_coding.py::test_cached_syndrome_table_is_immutable",
            "tests/test_ecc_decoder.py::test_packed_decoder_matches_row_table_oracle",
        ),
    ),
    Mutant(
        "pool-from-unreversed-locator",
        "coding.py",
        "errors, pooled = roots, locator[::-1]",
        "errors, pooled = roots, locator",
        (
            "tests/test_ecc_decoder.py::test_syndrome_decoder_matches_gao_oracle",
            "tests/test_ecc_decoder.py::test_packed_decoder_matches_row_table_oracle",
        ),
    ),
    Mutant(
        "form-groups-any-order",
        "protocol.py",
        "if len(set(pool)) != len(pool) or not set(pool) <= set(active):",
        "if False:",
        ("tests/test_protocol.py::test_form_groups_rejects_bad_order",),
    ),
    Mutant(
        "group-response-unchecked-lengths",
        "protocol.py",
        "if len(b) != n or len(packed) != n:",
        "if False:",
        ("tests/test_protocol.py::test_group_response_rejects_wrong_lengths",),
    ),
    Mutant(
        "match-prefix-from-unreduced-gradients",
        "protocol.py",
        "grow = [g % q for g in self.gradients[c]]",
        "grow = list(self.gradients[c])",
        ("tests/test_protocol.py::test_prefix_match_answers_fill_the_lane_at_every_q_minus_one",),
    ),
    Mutant(
        "every-empty-matrix-regular",
        "assignment.py",
        "return a.p == 0 or rho == 0",
        "return True",
        ("tests/test_assignment.py::test_validate_regular_equals_the_column_oracle",),
    ),
    Mutant(
        "ecc-pool-path-disabled",
        "coding.py",
        "if tau and errors and 2 * len(errors) <= len(syndromes):",
        "if False:",
        ("tests/test_ecc_decoder.py::test_scale_probes_decode_exactly",),
    ),
    Mutant(
        "match-prefix-rebuilt-at-every-level",
        "protocol.py",
        "sums = self._prefix.get(c)",
        "sums = None",
        ("tests/test_ecc_decoder.py::test_scale_probes_full_depth_matches",),
    ),
    Mutant(
        "pool-locator-from-newest-roots",
        "coding.py",
        "pooled = _pool_locator(errors.values(), q)",
        "pooled = _pool_locator(roots.values(), q)",
        ("tests/test_ecc_decoder.py::test_pool_locator_covers_every_pooled_worker",),
    ),
    Mutant(
        "ecc-decode-without-pool-budget",
        "coding.py",
        "if len(errors) > tau:",
        "if False:",
        (
            "tests/test_ecc_decoder.py::test_shared_locator_pools_errors_across_coordinates",
            "tests/test_ecc_decoder.py::test_syndrome_decoder_matches_gao_oracle",
        ),
    ),
    Mutant(
        "liar-keeps-offsets-across-binds",
        "adversary.py",
        "self._offsets: dict[int, list[int]] = {}",
        'self._offsets = getattr(self, "_offsets", {})',
        ("tests/test_adversary.py::test_a_rebound_liar_tells_a_new_story_at_the_new_dimension",),
    ),
    Mutant(
        "liar-coefficient-from-previous-sample",
        "adversary.py",
        "column = tuple([row[target] for row in a_mat.bits])",
        "column = tuple([row[target - 1] for row in a_mat.bits])",
        ("tests/test_adversary.py::test_liar_coefficients_equal_the_encoding_entries",),
    ),
    Mutant(
        "conflict-at-last-differing-coordinate",
        "protocol.py",
        "for coord, (x, y) in enumerate(zip(first, other)):",
        "for coord, (x, y) in reversed(list(enumerate(zip(first, other)))):",
        ("tests/test_protocol.py::test_detect_conflict_first_coordinate",),
    ),
    Mutant(
        "validate-keeps-q-above-the-sample-count",
        "harness.py",
        "build_code_context(self.n, self.s, self.u, self.q)",
        "build_code_context(self.n, self.s, self.u, self.q)\n"
        "        if self.q <= max(self.n, self.p):\n"
        '            raise InvalidParamsError(f"need q > max(n, p), got q={self.q}")',
        (
            "tests/test_harness.py::test_a_field_no_larger_than_the_sample_count_runs_and_replays",
            "tests/test_acceptance.py::test_criterion_2_small_fields_with_q_at_most_p",
        ),
    ),
    Mutant(
        "run-rebuilds-its-code",
        "harness.py",
        "ctx = config.validate()",
        "config.validate()\n    ctx = build_code_context(config.n, config.s, config.u, config.q)",
        ("tests/test_trace_points.py::test_every_run_builds_its_code_once",),
    ),
    Mutant(
        "random-assignment-ignores-seed",
        "harness.py",
        'aseed = config.seed if config.assignment == "random" else 0',
        "aseed = 0",
        (
            "tests/test_protocol.py::test_match_golden_digest",
            "tests/test_protocol.py::test_wide_run_golden_digest",
        ),
    ),
    Mutant(
        "sweep-validated-after-the-csv-is-opened",
        "cli.py",
        "item.validate()",
        "pass",
        ("tests/test_harness.py::test_cli_sweep_rejects_bad_grid_before_writing",),
    ),
    Mutant(
        "match-of-groups-one-and-k",
        "protocol.py",
        "union = sorted(set(groups[0]) | set(groups[k]))",
        "union = sorted(set(groups[1]) | set(groups[k]))",
        (
            "tests/test_protocol.py::test_consistent_liar_forces_full_depth",
            "tests/test_protocol.py::test_match_golden_digest",
        ),
    ),
    Mutant(
        "code-accepts-q-equal-to-n",
        "coding.py",
        "if q <= n:",
        "if q < n:",
        ("tests/test_harness.py::test_config_validation_errors",),
    ),
    Mutant(
        "contradiction-by-order",
        "protocol.py",
        "if x != y:",
        "if x > y:",
        ("tests/test_protocol.py::test_the_main_node_path_depends_only_on_the_deviations",),
    ),
    Mutant(
        "leaf-without-liar-unchecked",
        "protocol.py",
        "if not malicious:",
        "if False:",
        ("tests/test_protocol.py::test_a_leaf_without_a_liar_raises",),
    ),
    Mutant(
        "replay-without-event-comparison",
        "harness.py",
        "if regenerated != events:",
        "if False:",
        (
            "tests/test_harness.py::test_replay_detects_tampering",
            "tests/test_harness.py::test_replay_mutation_fuzz",
        ),
    ),
    Mutant(
        "sample-lane-one-byte-short",
        "coding.py",
        "width = lane_bytes(self.q, len(w))",
        "width = lane_bytes(self.q, len(w)) - 1",
        (
            "tests/test_protocol.py::test_prefix_match_answers_fill_the_lane_at_every_q_minus_one",
            "tests/test_coding.py::test_response_matrix_matches_dense_product",
        ),
    ),
    Mutant(
        "lanes-read-in-reverse-worker-order",
        "protocol.py",
        "list(range(shift * (self.ctx.n - 1), -1, -shift))",
        "list(range(0, shift * self.ctx.n, shift))",
        ("tests/test_protocol.py::test_prefix_match_answers_equal_strided_slice",),
    ),
    Mutant(
        "prefix-table-kept-across-bind",
        "protocol.py",
        "self._prefix: dict[int, list[int]] = {}",
        'self._prefix = getattr(self, "_prefix", {})',
        (
            "tests/test_protocol.py::test_prefix_match_answers_equal_strided_slice",
            "tests/test_protocol.py::test_a_rebound_responder_reads_the_lanes_of_its_new_code",
        ),
    ),
    Mutant(
        "eliminate-without-swap-sign",
        "linalg.py",
        "det = -det",
        "det = det",
        ("tests/test_linalg.py::test_determinant_against_leibniz_oracle",),
    ),
    Mutant(
        "solve-unique-below-full-rank",
        "linalg.py",
        'kind = "unique" if rank == k else "underdetermined"',
        'kind = "unique"',
        ("tests/test_linalg.py::test_solve_underdetermined_returns_particular",),
    ),
    Mutant(
        "located-pattern-without-root-count",
        "coding.py",
        "if len(roots) != size:",
        "if False:",
        (
            "tests/test_ecc_decoder.py::test_syndrome_decoder_matches_gao_oracle",
            "tests/test_ecc_decoder.py::test_located_patterns_lie_within_the_radius_with_nonzero_values",
            "tests/test_protocol.py::test_an_over_budget_decode_raises_budget_exceeded",
        ),
    ),
)


@dataclass(frozen=True)
class Equivalent:
    """A mutant that no test can kill: the program it makes behaves the same."""

    name: str
    module: str
    snippet: str
    replacement: str
    reason: str


EQUIVALENT = (
    Equivalent(
        "conflict-scan-against-the-previous-group",
        "protocol.py",
        "for coord, (x, y) in enumerate(zip(first, other)):",
        "for coord, (x, y) in enumerate(zip(responses[k - 1], other)):",
        "the first group unlike group 0 follows groups equal to it, so its predecessor is group 0",
    ),
    Equivalent(
        "agreement-value-from-the-last-group",
        "protocol.py",
        '"value": list(claims[0])}',
        '"value": list(claims[-1])}',
        "agreement is recorded only when detect_contradiction found every claim equal",
    ),
)


def _pytest(tree: Path, node_ids) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *node_ids]
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True).returncode


def missed_killers(tree: Path, m: Mutant) -> list[tuple[str, int]]:
    """Each killer of m that does not fail on tree with m applied, with its pytest exit status.

    Each killer runs on its own, so an empty list means every one of them
    kills the mutant. The mutated module is restored afterwards.
    """
    path = tree / PACKAGE / m.module
    source = path.read_text(encoding="utf-8")
    path.write_text(source.replace(m.snippet, m.replacement), encoding="utf-8")
    try:
        codes = [(k, _pytest(tree, [k])) for k in m.killers]
    finally:
        path.write_text(source, encoding="utf-8")
    return [(k, code) for k, code in codes if code != 1]


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(
            ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis")
        )
        if _pytest(tree, sorted({k for m in chosen for k in m.killers})) != 0:
            print("the killing tests fail on the unmutated tree", file=sys.stderr)
            return 2
        survived = 0
        for m in chosen:
            missed = missed_killers(tree, m)
            survived += bool(missed)
            if not missed:
                print(f"{m.name}: killed")
            for k, code in missed:
                how = "passed" if code == 0 else f"pytest exit {code}"
                print(f"{m.name}: SURVIVED {k} ({how})")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
