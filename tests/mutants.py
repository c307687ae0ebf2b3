"""Kept mutants: one-line faults the test suite must catch.

Each entry names a file of the repository, a source text that occurs in
it exactly once, the text that replaces it, and the tests expected to
fail once it is replaced.  Run

    python tests/mutants.py [NAME ...]

from the repository root: each mutant (or each one named) is applied to
a copy of src/ and tests/ under a temporary directory, only its tests
run there, and it is reported killed when every one of them fails,
weak when only some do, and surviving when none does.  The exit status
is 1 unless every mutant run is killed.

The runner is not part of the test suite; test_mutants.py checks that
every source text still occurs exactly once, so a change that rewrites
the code under a mutant must re-target it rather than drop it.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    source: str
    replacement: str
    tests: tuple[str, ...]


_LEDGER = "src/holosim/ledger.py"
_STREAMING = "src/holosim/streaming.py"
_REPLAY = "src/holosim/replay.py"
_CODEC = "src/holosim/codec.py"
_BLOCKS = "src/holosim/blocks.py"
_MACHINE = "src/holosim/machine.py"
_WITNESS = "src/holosim/witness.py"
_T_LEDGER = "tests/test_ledger.py::"
_T_STREAMING = "tests/test_streaming.py::"
_T_WITNESS = "tests/test_witness.py::"
_T_CODEC = "tests/test_codec.py::"
_T_HOSTILE = "tests/test_hostile_input.py::"

# the leaf loop's per-step hull tests, across which the clock and state
# mutants move the clock's increment or the state's update
_LEAF_ARRIVALS = """\
                for ts in tapes:
                    h = heads[ts.index]
                    # inside its block hull a head changes nothing, and
                    # inside its window it only grows the hull
                    if h < ts.blk_lo:
                        if h >= ts.lo:
                            ts.blk_lo = h
                        else:
                            arrive(self, ts, h, k)
                        if ledger is not None and h < flo[ts.index]:
                            ledger.refresh_tape(ts)
                    elif h > ts.blk_hi:
                        if h <= ts.hi:
                            ts.blk_hi = h
                        else:
                            arrive(self, ts, h, k)
                        if ledger is not None and h > fhi[ts.index]:
                            ledger.refresh_tape(ts)
"""

MUTANTS = (
    # the ledger's gate and bands
    Mutant(
        "band-top-one-high",
        _LEDGER,
        "top = (1 << (n - 1)) - 1",
        "top = 1 << (n - 1)",
        (
            _T_LEDGER + "test_bands_are_maximal_runs_of_equal_cells[2]",
            _T_LEDGER + "test_bands_are_maximal_runs_of_equal_cells[130]",
            _T_LEDGER + "test_meter_matches_reference_bundled[counter]",
            _T_LEDGER + "test_ledger_figures_at_benchmark_size[sweep]",
        ),
    ),
    Mutant(
        "band-bottom-one-low",
        _LEDGER,
        "bottom = 1 << (first - 2)",
        "bottom = (1 << (first - 2)) - 1",
        (
            _T_LEDGER + "test_bands_are_maximal_runs_of_equal_cells[3]",
            _T_LEDGER + "test_meter_matches_reference_bundled[palin]",
            _T_LEDGER + "test_gate_work_at_benchmark_size[palin]",
        ),
    ),
    Mutant(
        "clock-bound-at-leaf-start",
        _LEDGER,
        "R = run.decomp.block(run.leaf_id)[1]",
        "R = run.decomp.block(run.leaf_id)[0]",
        (
            _T_LEDGER + "test_gate_matches_forced_metering_random_machines",
            _T_LEDGER + "test_gate_work_at_benchmark_size[sweep]",
            "tests/test_cli.py::test_scaling_writer2_fits_nothing",
        ),
    ),
    Mutant(
        "step-gate-not-strict",
        _LEDGER,
        "per metered step\n"
        "            book = self._book + self._bound\n"
        "            self.hot = screen > self.max_screen or book > self.max_book"
        " or screen + book > self.max_total",
        "per metered step\n"
        "            book = self._book + self._bound\n"
        "            self.hot = screen >= self.max_screen or book >= self.max_book"
        " or screen + book >= self.max_total",
        (
            _T_LEDGER + "test_gate_work_at_benchmark_size[counter]",
            _T_LEDGER + "test_gate_work_at_benchmark_size[palin]",
        ),
    ),
    Mutant(
        "refresh-gate-not-strict",
        _LEDGER,
        "hot = self.hot = slack < 0 or book > self.max_book",
        "hot = self.hot = slack <= 0 or book >= self.max_book",
        (
            _T_LEDGER + "test_gate_matches_forced_metering_random_machines",
            _T_LEDGER + "test_gate_work_at_benchmark_size[sweep]",
        ),
    ),
    Mutant(
        "head-bound-from-blk-lo",
        _LEDGER,
        "sum([max(c[2], c[3]) for c in self._tape_cells])",
        "sum([c[2] for c in self._tape_cells])",
        (
            _T_LEDGER + "test_gate_matches_forced_metering_random_machines",
            _T_LEDGER + "test_gate_work_at_benchmark_size[counter]",
        ),
    ),
    # the fences: every tape's hull charged, the slack shared, the band
    # edges an arrival reaches, and no room while the gate is hot
    Mutant(
        "fence-charges-only-refreshed-tape",
        _LEDGER,
        "if other is not None and other is not ts:",
        "if False:",
        (
            _T_LEDGER + "test_gate_matches_forced_metering_random_machines",
            _T_LEDGER + "test_fence_work_at_benchmark_size[palin]",
        ),
    ),
    Mutant(
        "fence-slack-one-high",
        _LEDGER,
        "f = blk_hi + slack\n",
        "f = blk_hi + slack + 1\n",
        (
            _T_LEDGER + "test_gate_matches_forced_metering_random_machines",
            _T_LEDGER + "test_ledger_figures_at_benchmark_size[sweep]",
            _T_LEDGER + "test_gate_work_at_benchmark_size[sweep]",
            _T_LEDGER + "test_fence_work_at_benchmark_size[sweep]",
        ),
    ),
    Mutant(
        "fence-ignores-lost-hull-band",
        _LEDGER,
        "if far_hi < band[11] + cap:\n"
        "                far_hi = band[11] + cap\n",
        "if True:\n"
        "                far_hi = band[1] + cap - 1\n",
        (
            _T_LEDGER + "test_gate_matches_forced_metering_random_machines",
        ),
    ),
    Mutant(
        "fences-left-open-while-hot",
        _LEDGER,
        "        if hot or not slack:\n            fence_lo[i], fence_hi[i] = blk_lo, blk_hi\n",
        "        if hot or not slack:\n",
        (
            _T_LEDGER + "test_gate_matches_forced_metering_random_machines",
            _T_LEDGER + "test_gate_work_at_benchmark_size[counter]",
            _T_LEDGER + "test_fence_work_at_benchmark_size[sweep]",
        ),
    ),
    Mutant(
        "recount-head-ignores-blk-hi",
        _LEDGER,
        "if j == 2 or j == 3:",
        "if j == 2:",
        (
            _T_LEDGER + "test_gate_matches_forced_metering_random_machines",
            _T_LEDGER + "test_gate_work_at_benchmark_size[counter]",
            _T_LEDGER + "test_gate_work_at_benchmark_size[sweep]",
        ),
    ),
    Mutant(
        "steps-recorded-whole-leaf",
        _STREAMING,
        "ledger.steps_recorded += tau - (L - 1)",
        "ledger.steps_recorded += R - L + 1",
        (
            _T_LEDGER + "test_steps_recorded_on_violations[RunEndedEarly]",
            _T_LEDGER + "test_steps_recorded_on_violations[StaleWindowReentry]",
            _T_LEDGER + "test_steps_recorded_on_violations[NonBlockRespecting]",
        ),
    ),
    # the leaf loop: hull growth inside the window, the local clock and
    # the audit
    Mutant(
        "inline-hull-skips-window-check",
        _STREAMING,
        "if h >= ts.lo:",
        "if h >= ts.lo - 1:",
        (
            _T_LEDGER + "test_meter_matches_reference_random_machines",
            _T_STREAMING + "test_counter_stream_exact",
            _T_STREAMING + "test_stream_matches_reference_discipline_random_machines",
            _T_STREAMING + "test_verify_sink_matches_reference_verifier",
        ),
    ),
    Mutant(
        "clock-counts-violating-step",
        _STREAMING,
        _LEAF_ARRIVALS + "                state = value[0]\n                tau += 1\n",
        "                tau += 1\n" + _LEAF_ARRIVALS + "                state = value[0]\n",
        (
            _T_LEDGER + "test_steps_recorded_on_violations[StaleWindowReentry]",
            _T_LEDGER + "test_steps_recorded_on_violations[NonBlockRespecting]",
            _T_STREAMING + "test_clock_and_state_after_a_violation[StaleWindowReentry-bare]",
            _T_STREAMING + "test_clock_and_state_after_a_violation[NonBlockRespecting-sink]",
        ),
    ),
    Mutant(
        "state-of-violating-step",
        _STREAMING,
        _LEAF_ARRIVALS + "                state = value[0]\n",
        "                state = value[0]\n" + _LEAF_ARRIVALS,
        (
            _T_STREAMING + "test_clock_and_state_after_a_violation[StaleWindowReentry-sink]",
            _T_STREAMING + "test_clock_and_state_after_a_violation[NonBlockRespecting-bare]",
        ),
    ),
    Mutant(
        "audit-off-stride",
        _STREAMING,
        "if tau % stride == 0:",
        "if tau % stride == 1:",
        (
            _T_STREAMING + "test_audit_fires_without_a_sink",
        ),
    ),
    Mutant(
        "audit-reads-stale-clock",
        _STREAMING,
        "self.tau = tau\n                    self._audit()",
        "self._audit()",
        (
            _T_STREAMING + "test_audit_fires_without_a_sink",
        ),
    ),
    Mutant(
        "table-sized-by-2t",
        _LEDGER,
        "size = max(2 * self.t, self.b, len(run.machine.state_index)).bit_length() + 2",
        "size = (2 * self.t).bit_length() + 2",
        (
            _T_STREAMING + "test_walk_follows_static_tree_random_machines",
        ),
    ),
    # the lockstep VerifySink, which checks the engine's steps
    Mutant(
        "verify-skips-written-cells",
        _STREAMING,
        "if ts.live.get(w) != tape.get(w):",
        "if False:",
        (
            _T_STREAMING + "test_verify_sink_checks_written_cells",
            _T_STREAMING + "test_verify_sink_matches_reference_verifier",
            _T_STREAMING + "test_verify_sink_rejects_wrong_emission[cell-in-span]",
        ),
    ),
    Mutant(
        "verify-state-unchecked",
        _STREAMING,
        "if value is not expected and value[0] != expected[0] or self.run_heads != heads:",
        "if self.run_heads != heads:",
        (
            _T_STREAMING + "test_verify_sink_matches_reference_verifier",
            _T_STREAMING + "test_verify_sink_rejects_wrong_emission[state]",
        ),
    ),
    Mutant(
        "verify-heads-unchecked",
        _STREAMING,
        "if value is not expected and value[0] != expected[0] or self.run_heads != heads:",
        "if value is not expected and value[0] != expected[0]:",
        (
            _T_STREAMING + "test_verify_sink_matches_reference_verifier",
            _T_STREAMING + "test_verify_sink_rejects_wrong_emission[head]",
        ),
    ),
    Mutant(
        "verify-trusts-deviating-emission",
        _STREAMING,
        "if lo <= cell <= hi:\n                    raise self._disagrees()",
        "if False:\n                    raise self._disagrees()",
        (
            _T_STREAMING + "test_verify_sink_matches_reference_verifier",
        ),
    ),
    Mutant(
        "verify-left-cell-shows-oracle",
        _STREAMING,
        "stale += live.get(cell) != tape.get(cell)",
        "stale += 0",
        (
            _T_STREAMING + "test_step_stream_is_faithful[sweep]",
            _T_STREAMING + "test_verify_sink_counts_strict_emissions",
            _T_STREAMING + "test_verify_sink_matches_reference_verifier",
        ),
    ),
    Mutant(
        "verify-revert-symbol-unchecked",
        _STREAMING,
        "stale += live.get(cell) != tape.get(cell)",
        "stale += ts.initial.get(cell) != tape.get(cell)",
        (
            _T_STREAMING + "test_verify_sink_counts_strict_emissions",
            _T_STREAMING + "test_verify_sink_matches_reference_verifier",
        ),
    ),
    Mutant(
        "verify-entering-cell-unchecked",
        _STREAMING,
        "for cell in came:\n            if live.get(cell) != tape.get(cell):",
        "for cell in came:\n            if False:",
        (
            _T_STREAMING + "test_verify_sink_matches_reference_verifier",
        ),
    ),
    Mutant(
        "verify-left-slide-loses-far-cell",
        _STREAMING,
        "gone, came = (hi0,), (lo1,)",
        "gone, came = (), (lo1,)",
        (
            _T_STREAMING + "test_step_stream_is_faithful_random_machines",
            _T_STREAMING + "test_verify_sink_matches_reference_verifier",
        ),
    ),
    Mutant(
        "verify-recount-keeps-stale",
        _STREAMING,
        "self.exact = not any(self.stale)",
        "self.exact = self.exact and not any(self.stale)",
        (
            _T_STREAMING + "test_verify_sink_matches_reference_verifier",
        ),
    ),
    Mutant(
        "verify-strict-from-stale-count",
        _STREAMING,
        "self.strict += self.exact",
        "self.strict += 1",
        (
            _T_STREAMING + "test_step_stream_is_faithful[sweep]",
            _T_STREAMING + "test_verify_sink_counts_strict_emissions",
            _T_STREAMING + "test_verify_sink_matches_reference_verifier",
        ),
    ),
    # the history witness's code rows
    Mutant(
        "rows-hull-widened-one-low",
        _REPLAY,
        "if cell < los[i]:\n                    los[i] = cell",
        "if cell < los[i]:\n                    los[i] = cell - 1",
        (
            _T_WITNESS + "test_history_witness_equals_encoded_replay_random_machines",
            _T_WITNESS + "test_history_witness_error_parity_on_crafted_summaries",
            _T_WITNESS + "test_history_witness_builds_no_configuration",
            "tests/test_acceptance.py::test_criterion_6_witness_constancy",
        ),
    ),
    Mutant(
        "rows-no-rescan-on-blanked-end",
        _REPLAY,
        "elif cell == los[i] or cell == his[i]:",
        "elif False:",
        (
            _T_WITNESS + "test_history_witness_equals_encoded_replay_random_machines",
            _T_WITNESS + "test_history_witness_error_parity_on_crafted_summaries",
            _T_WITNESS + "test_history_output_equals_direct_replay",
            "tests/test_acceptance.py::test_criterion_6_witness_constancy",
        ),
    ),
    Mutant(
        "rows-code-set-at-head",
        _REPLAY,
        "rows[i][cell - bases[i]] = code(sym)",
        "rows[i][heads[i] - bases[i]] = code(sym)",
        (
            _T_WITNESS + "test_history_witness_equals_encoded_replay_random_machines",
            _T_WITNESS + "test_history_witness_builds_no_configuration",
            _T_WITNESS + "test_history_output_equals_direct_replay",
        ),
    ),
    Mutant(
        "rows-slice-end-one-short",
        _REPLAY,
        "his[i] - bases[i] + 1]",
        "his[i] - bases[i]]",
        (
            _T_WITNESS + "test_history_witness_equals_encoded_replay_random_machines",
            _T_WITNESS + "test_history_witness_builds_no_configuration",
            _T_WITNESS + "test_history_output_equals_direct_replay",
            "tests/test_acceptance.py::test_criterion_6_witness_constancy",
        ),
    ),
    Mutant(
        "rows-one-byte-bound-one-high",
        _REPLAY,
        "if machine.code_table is not None:",
        "if machine.code_table is not None or len(machine.work_alphabet) == 0x81:",
        (
            _T_WITNESS + "test_history_witness_at_the_one_byte_bound[129-2]",
            _T_WITNESS + "test_history_witness_with_and_without_a_code_table[glyphs-129]",
        ),
    ),
    # the record layout, which the witness and encode_history share
    Mutant(
        "tape-field-length-in-bytes",
        _CODEC,
        "encode_uvarint(hi - lo + 1) + body",
        "encode_uvarint(len(body)) + body",
        (
            _T_CODEC + "test_code_table_at_the_one_byte_bound[129]",
            _T_CODEC + "test_machines_without_a_code_table_encode_as_the_reference[wide]",
            _T_CODEC + "test_wide_alphabet_round_trips_with_two_byte_indices",
            _T_WITNESS + "test_history_witness_at_the_one_byte_bound[129-2]",
            _T_WITNESS + "test_history_witness_equals_encoded_replay_random_machines",
            _T_WITNESS + "test_history_witness_error_parity_on_crafted_summaries",
            _T_WITNESS + "test_history_witness_with_and_without_a_code_table[glyphs-129]",
        ),
    ),
    Mutant(
        "record-time-as-svarint",
        _CODEC,
        "encode_uvarint(time),",
        "encode_svarint(time),",
        (
            "tests/test_acceptance.py::test_criterion_6_witness_constancy",
            "tests/test_acceptance.py::test_criterion_8_encoding_round_trips",
            _T_CODEC + "test_code_table_at_the_one_byte_bound[128]",
            _T_CODEC + "test_code_table_at_the_one_byte_bound[129]",
            _T_CODEC + "test_concatenated_mixed_records",
            _T_CODEC + "test_configuration_round_trip_random",
            _T_CODEC + "test_encoders_match_reference_bundled",
            _T_CODEC + "test_encoders_match_reference_random",
            _T_CODEC + "test_history_round_trip_writer2",
            _T_CODEC + "test_machines_without_a_code_table_encode_as_the_reference[multi-char]",
            _T_CODEC + "test_machines_without_a_code_table_encode_as_the_reference[not-latin-1]",
            _T_CODEC + "test_machines_without_a_code_table_encode_as_the_reference[wide]",
            _T_CODEC + "test_wide_alphabet_round_trips_with_two_byte_indices",
            _T_WITNESS + "test_history_output_equals_direct_replay",
            _T_WITNESS + "test_history_witness_at_the_one_byte_bound[128-1]",
            _T_WITNESS + "test_history_witness_at_the_one_byte_bound[129-2]",
            _T_WITNESS + "test_history_witness_builds_no_configuration",
            _T_WITNESS + "test_history_witness_equals_encoded_replay_random_machines",
            _T_WITNESS + "test_history_witness_error_parity_on_crafted_summaries",
            _T_WITNESS + "test_history_witness_long_hulls[palin]",
            _T_WITNESS + "test_history_witness_long_hulls[sweep]",
            _T_WITNESS + "test_history_witness_with_and_without_a_code_table[glyphs-128]",
            _T_WITNESS + "test_history_witness_with_and_without_a_code_table[glyphs-129]",
            _T_WITNESS + "test_history_witness_with_and_without_a_code_table[multi-char]",
            _T_WITNESS + "test_history_witness_with_and_without_a_code_table[not-latin-1]",
            _T_WITNESS + "test_pointwise_output_equals_direct_replay",
        ),
    ),
    # the per-machine code table
    Mutant(
        "code-table-sentinel-unchecked",
        _CODEC,
        "if len(run) == len(symbols) and 0xFF not in run:",
        "if len(run) == len(symbols):",
        (
            _T_CODEC + "test_symbol_outside_the_alphabet_raises_key_error[latin-1-char-counter]",
        ),
    ),
    Mutant(
        "code-table-takes-empty-symbols",
        _CODEC,
        "if table is not None and all(symbols):",
        "if table is not None:",
        (
            _T_CODEC + "test_runs_with_an_empty_symbol_raise_the_per_symbol_key_error[01+empty]",
            _T_CODEC + "test_runs_with_an_empty_symbol_raise_the_per_symbol_key_error[0+empty+1_]",
        ),
    ),
    Mutant(
        "code-table-decode-range-unchecked",
        _CODEC,
        "if table[1][-1] not in chars:",
        "if True:",
        (
            _T_CODEC + "test_out_of_range_symbol_index_rejected",
            _T_CODEC + "test_short_symbol_runs_decode[False]",
            _T_HOSTILE + "test_edge_summaries_truncated_or_changed_decode_as_the_reference_does",
        ),
    ),
    Mutant(
        "code-table-over-128-symbols",
        _MACHINE,
        "if len(work) > 0x80 or",
        "if len(work) > 0x81 or",
        (
            _T_CODEC + "test_code_table_at_the_one_byte_bound[129]",
            _T_CODEC + "test_code_table_only_for_one_byte_latin_1_alphabets",
            _T_WITNESS + "test_history_witness_with_and_without_a_code_table[glyphs-129]",
        ),
    ),
    # the replay loop and its callers
    Mutant(
        "replay-escape-top-strict",
        _REPLAY,
        "if not lo <= heads[i] <= hi:",
        "if not lo <= heads[i] < hi:",
        (
            "tests/test_replay.py::test_replay_every_offset_matches_oracle",
            "tests/test_replay.py::test_boundary_determines_exit_random",
            _T_WITNESS + "test_history_witness_equals_encoded_replay_random_machines",
            "tests/test_acceptance.py::test_criterion_6_witness_constancy",
        ),
    ),
    Mutant(
        "replay-halt-check-one-short",
        _REPLAY,
        "if done < steps:",
        "if done + 1 < steps:",
        (
            "tests/test_replay.py::test_step_from_halt_surfaces",
            _T_WITNESS + "test_history_witness_error_parity_on_crafted_summaries",
        ),
    ),
    Mutant(
        "replay-all-drops-entry",
        _REPLAY,
        "configs = [config(summary.L - 1, summary.q_in)]",
        "configs = []",
        (
            "tests/test_replay.py::test_replay_all_spans_interval",
            "tests/test_replay.py::test_replay_all_emits_in_order",
            _T_WITNESS + "test_history_witness_equals_encoded_replay_random_machines",
        ),
    ),
    Mutant(
        "pending-depth-one-low",
        _LEDGER,
        "self.max_pending = pending",
        "self.max_pending = pending - 1",
        (_T_LEDGER + "test_max_pending_is_most_right_turns_on_a_path",),
    ),
    # the audit path's fast paths
    Mutant(
        "uvarint-one-byte-bound-inclusive",
        _CODEC,
        "and data[offset] < 0x80:",
        "and data[offset] <= 0x80:",
        (
            _T_CODEC + "test_uvarint_round_trip",
            _T_HOSTILE + "test_edge_summaries_decode_as_the_reference_does",
            _T_HOSTILE + "test_edge_summaries_truncated_or_changed_decode_as_the_reference_does",
        ),
    ),
    Mutant(
        "uvarint-two-byte-shift-one-high",
        _CODEC,
        "data[offset + 1] << 7",
        "data[offset + 1] << 8",
        (
            "tests/test_acceptance.py::test_criterion_6_witness_constancy",
            "tests/test_acceptance.py::test_criterion_8_encoding_round_trips",
            "tests/test_cli.py::test_simulate_outputs",
            "tests/test_cli.py::test_witness_out_file",
            "tests/test_cli.py::test_witness_stdout",
            _T_CODEC + "test_code_table_at_the_one_byte_bound[128]",
            _T_CODEC + "test_code_table_at_the_one_byte_bound[129]",
            _T_CODEC + "test_configuration_round_trip_random",
            _T_CODEC + "test_encoders_match_reference_bundled",
            _T_CODEC + "test_encoders_match_reference_random",
            _T_CODEC + "test_machines_without_a_code_table_encode_as_the_reference[multi-char]",
            _T_CODEC + "test_machines_without_a_code_table_encode_as_the_reference[not-latin-1]",
            _T_CODEC + "test_machines_without_a_code_table_encode_as_the_reference[wide]",
            _T_CODEC + "test_out_of_range_symbol_index_names_the_first[multi-char]",
            _T_CODEC + "test_out_of_range_symbol_index_names_the_first[not-latin-1]",
            _T_CODEC + "test_out_of_range_symbol_index_rejected",
            _T_CODEC + "test_short_symbol_runs_decode[True]",
            _T_CODEC + "test_summary_round_trip_oracle",
            _T_CODEC + "test_summary_round_trip_random",
            _T_CODEC + "test_uvarint_decodes_every_one_and_two_byte_value",
            _T_CODEC + "test_wide_alphabet_round_trips_with_two_byte_indices",
            _T_HOSTILE + "test_edge_summaries_decode_as_the_reference_does",
            _T_HOSTILE + "test_edge_summaries_truncated_or_changed_decode_as_the_reference_does",
            _T_WITNESS + "test_conditional_arity_checked",
            _T_WITNESS + "test_history_output_equals_direct_replay",
            _T_WITNESS + "test_history_witness_at_the_one_byte_bound[128-1]",
            _T_WITNESS + "test_history_witness_at_the_one_byte_bound[129-2]",
            _T_WITNESS + "test_history_witness_builds_no_configuration",
            _T_WITNESS + "test_history_witness_equals_encoded_replay_random_machines",
            _T_WITNESS + "test_history_witness_error_parity_on_crafted_summaries",
            _T_WITNESS + "test_history_witness_long_hulls[palin]",
            _T_WITNESS + "test_history_witness_long_hulls[sweep]",
            _T_WITNESS + "test_history_witness_with_and_without_a_code_table[glyphs-128]",
            _T_WITNESS + "test_history_witness_with_and_without_a_code_table[glyphs-129]",
            _T_WITNESS + "test_history_witness_with_and_without_a_code_table[multi-char]",
            _T_WITNESS + "test_history_witness_with_and_without_a_code_table[not-latin-1]",
            _T_WITNESS + "test_length_constant_across_inputs",
            _T_WITNESS + "test_malformed_witness_rejected",
            _T_WITNESS + "test_parse_round_trip",
            _T_WITNESS + "test_pointwise_output_equals_direct_replay",
            _T_WITNESS + "test_witness_accepts_raw_bytes",
            _T_WITNESS + "test_witness_cache_is_bounded_and_keeps_no_error",
            _T_WITNESS + "test_witness_parses_each_program_once",
        ),
    ),
    Mutant(
        "window-lo-sign-flipped",
        _CODEC,
        "lo = (z >> 1) ^ -(z & 1)",
        "lo = -((z >> 1) ^ -(z & 1))",
        (
            _T_CODEC + "test_summary_round_trip_random",
            _T_HOSTILE + "test_edge_summaries_decode_as_the_reference_does",
            _T_HOSTILE + "test_edge_summaries_truncated_or_changed_decode_as_the_reference_does",
        ),
    ),
    Mutant(
        "hull-slice-starts-one-late",
        _BLOCKS,
        "run.history.trace[L - 1 : R]",
        "run.history.trace[L:R]",
        (
            "tests/test_blocks.py::test_check_block_respecting_against_reference",
            "tests/test_ctree.py::test_label_tree_matches_leaf_and_direct_summaries_random",
            "tests/test_acceptance.py::test_criterion_7_tree_structure",
        ),
    ),
    Mutant(
        "cursor-slice-ends-one-short",
        _MACHINE,
        "h.trace[self.time : end]",
        "h.trace[self.time : end - 1]",
        (
            "tests/test_machine.py::test_history_cursor_matches_random_access",
            "tests/test_machine.py::test_cursor_advance_to_past_the_end_stops_at_t",
            "tests/test_ctree.py::test_label_tree_matches_leaf_and_direct_summaries_random",
        ),
    ),
    Mutant(
        "history-index-walks-one-short",
        _MACHINE,
        "cur.advance_to(tau)",
        "cur.advance_to(tau - 1)",
        (
            "tests/test_machine.py::test_history_random_access",
            "tests/test_machine.py::test_history_random_order_access_bundled",
            "tests/test_machine.py::test_history_random_order_access_random_machines",
        ),
    ),
    Mutant(
        "interval-summary-enters-one-late",
        _BLOCKS,
        "cursor.advance_to(L - 1)",
        "cursor.advance_to(L)",
        (
            "tests/test_blocks.py::test_writer2_whole_interval_summary",
            "tests/test_blocks.py::test_merge_equals_direct_summary_random_runs",
            "tests/test_ctree.py::test_label_tree_matches_leaf_and_direct_summaries_random",
        ),
    ),
    Mutant(
        "full-span-check-needs-both-ends",
        _BLOCKS,
        "if ew.lo != xw.lo or ew.hi != xw.hi:",
        "if ew.lo != xw.lo and ew.hi != xw.hi:",
        ("tests/test_blocks.py::test_full_policy_requires_shared_span",),
    ),
    Mutant(
        "witness-cache-keyed-by-kind",
        _WITNESS,
        "key = bytes(data)",
        "key = bytes(data[2:3])",
        (
            _T_WITNESS + "test_witness_parses_each_program_once",
            _T_WITNESS + "test_witness_cache_is_bounded_and_keeps_no_error",
            "tests/test_acceptance.py::test_criterion_6_witness_constancy",
        ),
    ),
    # summary merge, tree walk, ledger, kernel and window revert
    Mutant(
        "overlay-left-one-long",
        _BLOCKS,
        "left = under.symbols[: lo - under.lo] if",
        "left = under.symbols[: lo - under.lo + 1] if",
        (
            "tests/test_acceptance.py::test_criterion_7_tree_structure",
            "tests/test_blocks.py::test_merge_area_subadditive_random_runs",
            "tests/test_blocks.py::test_merge_associative_random_runs",
            "tests/test_blocks.py::test_merge_equals_direct_summary_random_runs",
            "tests/test_blocks.py::test_merge_fills_right_only_cells_without_initial_tape",
            "tests/test_blocks.py::test_merge_matches_cell_by_cell_reference",
            "tests/test_ctree.py::test_label_tree_matches_leaf_and_direct_summaries_bundled",
            "tests/test_ctree.py::test_label_tree_matches_leaf_and_direct_summaries_random",
            "tests/test_ctree.py::test_label_tree_non_block_respecting_matches_leaf_summary",
            "tests/test_ctree.py::test_random_fold_against_label_root",
        ),
    ),
    Mutant(
        "merged-entry-spans-from-right",
        _STREAMING,
        "entry_spans=left.entry_spans,",
        "entry_spans=right.entry_spans,",
        (
            _T_LEDGER + "test_gate_work_at_benchmark_size[counter]",
            _T_LEDGER + "test_gate_work_at_benchmark_size[palin]",
            _T_LEDGER + "test_gate_work_at_benchmark_size[sweep]",
            _T_LEDGER + "test_ledger_figures_at_benchmark_size[palin]",
            _T_LEDGER + "test_ledger_figures_at_benchmark_size[sweep]",
            _T_STREAMING + "test_walk_follows_static_tree",
            _T_STREAMING + "test_walk_follows_static_tree_random_machines",
        ),
    ),
    Mutant(
        "snapshot-charge-one-short",
        _LEDGER,
        "screen = blk_hi - blk_lo + 1",
        "screen = blk_hi - blk_lo",
        (
            "tests/test_cli.py::test_scaling_writer2_fits_nothing",
            _T_LEDGER + "test_ledger_figures_at_benchmark_size[counter]",
            _T_LEDGER + "test_ledger_figures_at_benchmark_size[palin]",
            _T_LEDGER + "test_ledger_figures_at_benchmark_size[sweep]",
            _T_LEDGER + "test_meter_matches_reference_bundled[counter]",
            _T_LEDGER + "test_meter_matches_reference_bundled[palin]",
            _T_LEDGER + "test_meter_matches_reference_bundled[sweep]",
            _T_LEDGER + "test_meter_matches_reference_bundled[writer2]",
            _T_LEDGER + "test_meter_matches_reference_random_machines",
            _T_LEDGER + "test_meter_matches_reference_wide_random_machines",
        ),
    ),
    Mutant(
        "kernel-stores-blank",
        _MACHINE,
        "tapes[i].pop(h, None)",
        "tapes[i][h] = blank",
        (
            "tests/test_acceptance.py::test_criterion_1_oracle_equivalence",
            "tests/test_acceptance.py::test_criterion_6_witness_constancy",
            "tests/test_machine.py::test_kernel_in_place_bundled",
            "tests/test_machine.py::test_kernel_in_place_random_machines",
            "tests/test_replay.py::test_replay_all_spans_interval",
            "tests/test_replay.py::test_replay_every_offset_matches_oracle",
            "tests/test_replay.py::test_two_tape_replay",
            _T_STREAMING + "test_block_length_one",
            _T_STREAMING + "test_counter_stream_exact",
            _T_STREAMING + "test_palin_stream_exact",
            _T_STREAMING + "test_reconstruct_at_matches_oracle",
            _T_STREAMING + "test_single_block_run",
            _T_STREAMING + "test_stream_matches_oracle_random_machines",
            _T_STREAMING + "test_stream_matches_reference_discipline_random_machines",
            _T_STREAMING + "test_verify_sink_checks_written_cells",
            _T_STREAMING + "test_verify_sink_counts_strict_emissions",
            _T_STREAMING + "test_verify_sink_matches_reference_verifier",
            _T_STREAMING + "test_verify_sink_refuses_skipped_and_late_times",
            _T_STREAMING + "test_verify_sink_rejects_wrong_emission[cell-in-span]",
            _T_STREAMING + "test_verify_sink_rejects_wrong_emission[head]",
            _T_STREAMING + "test_verify_sink_rejects_wrong_emission[state]",
            _T_WITNESS + "test_history_output_equals_direct_replay",
            _T_WITNESS + "test_history_witness_equals_encoded_replay_random_machines",
            _T_WITNESS + "test_history_witness_error_parity_on_crafted_summaries",
            _T_WITNESS + "test_history_witness_long_hulls[palin]",
            _T_WITNESS + "test_witness_parses_each_program_once",
        ),
    ),
    Mutant(
        "revert-keeps-shown-cells",
        _STREAMING,
        "ts.live[evict] = initial\n                self.shown_cells = None",
        "ts.live[evict] = initial\n                pass",
        (
            _T_STREAMING + "test_emissions_share_what_did_not_change_random_machines",
            _T_STREAMING + "test_step_stream_is_faithful_random_machines",
            _T_STREAMING + "test_stream_matches_oracle_random_machines",
            _T_STREAMING + "test_stream_matches_reference_discipline_random_machines",
        ),
    ),
    Mutant(
        "revert-deletes-cell",
        _STREAMING,
        "ts.live[evict] = initial\n",
        "del ts.live[evict]\n",
        (
            _T_LEDGER + "test_gate_matches_forced_metering_random_machines",
            _T_LEDGER + "test_meter_matches_reference_random_machines",
            _T_LEDGER + "test_meter_matches_reference_wide_random_machines",
            _T_LEDGER + "test_steps_recorded_on_violations[StaleWindowReentry]",
            _T_STREAMING + "test_emissions_share_what_did_not_change_random_machines",
            _T_STREAMING + "test_stale_window_reentry",
            _T_STREAMING + "test_step_stream_is_faithful_random_machines",
            _T_STREAMING + "test_stream_matches_oracle_random_machines",
            _T_STREAMING + "test_stream_matches_reference_discipline_random_machines",
            _T_STREAMING + "test_verify_sink_matches_reference_verifier",
            _T_STREAMING + "test_walk_follows_static_tree_random_machines",
        ),
    ),
    # block bounds computed from (t, b)
    Mutant(
        "last-block-not-clipped",
        _BLOCKS,
        "min(k * self.b, self.t)",
        "k * self.b",
        (
            "tests/test_blocks.py::test_decompose_block_arithmetic",
            "tests/test_ctree.py::test_tree_shape_t10_b3",
            _T_STREAMING + "test_walk_follows_static_tree",
        ),
    ),
    Mutant(
        "block-starts-one-low",
        _BLOCKS,
        "(k - 1) * self.b + 1",
        "(k - 1) * self.b",
        (
            "tests/test_blocks.py::test_decompose_block_arithmetic",
            "tests/test_ctree.py::test_single_leaf_tree",
            _T_STREAMING + "test_counter_stream_exact",
        ),
    ),
    Mutant(
        "block-count-floored",
        _BLOCKS,
        "T=-(-t // b)",
        "T=t // b",
        (
            "tests/test_blocks.py::test_decompose_partitions",
            "tests/test_ctree.py::test_tree_shape_t10_b3",
            _T_STREAMING + "test_walk_follows_static_tree",
        ),
    ),
)


def _failed(output: str) -> set[str]:
    return set(re.findall(r"^FAILED (\S+)", output, re.MULTILINE))


def run_mutant(m: Mutant) -> tuple[str, set[str]]:
    """Apply m to a temporary copy and run its tests; returns the
    verdict and the ids of its tests that failed."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        target = copy / m.path
        text = target.read_text()
        if text.count(m.source) != 1:
            return "stale", set()
        target.write_text(text.replace(m.source, m.replacement))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *m.tests],
            cwd=copy,
            capture_output=True,
            text=True,
        )
    failed = _failed(proc.stdout) & set(m.tests)
    if failed == set(m.tests):
        return "killed", failed
    return ("weak" if failed else "survived"), failed


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    ok = True
    for m in chosen:
        verdict, failed = run_mutant(m)
        ok &= verdict == "killed"
        print(f"{verdict:9} {m.name}: {len(failed)}/{len(m.tests)} of its tests failed")
        for test in sorted(set(m.tests) - failed):
            print(f"          passed: {test}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
