"""Tests for the kernel-encoding prover (repro.check.kernels)."""

import copy

import numpy as np
import pytest

from repro.check.automata import default_specs
from repro.check.kernels import _verify_limits, check_kernels, verify_ops
from repro.core.automata import PAPER_AUTOMATA, supports_vector_scan
from repro.predictors.registry import make_predictor
from repro.sim import KernelUnavailable, simulate
from repro.sim import kernels as kernels_module
from repro.sim.kernels import automaton_ops, simulate_vectorized, simulate_vectorized_stream
from repro.trace.events import TraceBuilder

from .test_sim_differential import CONTRARIAN

A2 = PAPER_AUTOMATA["A2"]
A3 = PAPER_AUTOMATA["A3"]


def _rules(findings):
    return {f.rule for f in findings}


def _mutable_ops(spec):
    """A deep copy of the live table bundle, safe to corrupt.

    deepcopy severs the compose_flat -> compose view, so tests that
    corrupt ``compose`` must corrupt ``compose_flat`` in step.
    """
    return copy.deepcopy(automaton_ops(spec))


class TestRepoIsClean:
    def test_every_registered_automaton_proves(self):
        findings, examined = check_kernels()
        assert findings == []
        # The prover must cover the full registered corpus, not a sample.
        assert examined == len(default_specs())
        assert examined >= 14

    def test_no_spec_is_skipped(self):
        # Every spec is either proved or gate-checked; there is no
        # third bucket the prover could silently drop a spec into.
        eligible = [s for s in default_specs() if supports_vector_scan(s)]
        gated = [s for s in default_specs() if not supports_vector_scan(s)]
        assert len(eligible) + len(gated) == len(default_specs())
        assert eligible  # the paper's automata are scan-eligible
        assert gated  # ideal/shift-register machines exercise the gate


class TestWidthLimits:
    """The audit of the kernels' width limits flags every broken bound."""

    def test_current_limits_are_clean(self):
        assert _verify_limits() == []

    @pytest.mark.parametrize("value", [31, 17, 24.5])
    def test_bad_history_limit(self, monkeypatch, value):
        monkeypatch.setattr(kernels_module, "_MAX_HISTORY_BITS", value)
        assert _rules(_verify_limits()) == {"kernels/history-width"}

    def test_table_ids_overflowing_the_packed_key(self, monkeypatch):
        monkeypatch.setattr(kernels_module, "_MAX_TABLE_ID_BITS", 40)
        assert _rules(_verify_limits()) == {"kernels/history-width"}

    @pytest.mark.parametrize("value", [32, 0])
    def test_block_indices_overflowing_int32(self, monkeypatch, value):
        monkeypatch.setattr(kernels_module, "_MAX_BLOCK_INDEX_BITS", value)
        assert _rules(_verify_limits()) == {"kernels/index-width"}

    def test_block_at_the_index_bound_is_refused(self, monkeypatch):
        builder = TraceBuilder(name="bound", source="test")
        for i in range(16):
            builder.conditional(4 * (i % 3), i % 2 == 0, work=1)
        trace = builder.build()
        reference = simulate(make_predictor("pag-4-a2-16x4"), trace, backend="python")
        monkeypatch.setattr(kernels_module, "_MAX_BLOCK_INDEX_BITS", 4)
        with pytest.raises(KernelUnavailable, match="int32 record indices"):
            simulate_vectorized(make_predictor("pag-4-a2-16x4"), trace)
        assert simulate(make_predictor("pag-4-a2-16x4"), trace, backend="auto") == reference
        streamed = simulate_vectorized_stream(make_predictor("pag-4-a2-16x4"), trace,
                                              block_size=15)
        assert streamed == reference


class TestCleanOps:
    def test_clean_ops_have_no_findings(self):
        for spec in (A2, A3):
            assert verify_ops(spec, automaton_ops(spec)) == []


class TestMutationSensitivity:
    """Single-table corruptions must yield exactly their own finding."""

    def test_single_lut_entry_corruption(self):
        ops = _mutable_ops(A2)
        ops.compose[5, 7] ^= 0b11
        ops.compose_flat[5 * 256 + 7] ^= 0b11
        findings = verify_ops(A2, ops)
        assert findings, "corrupted LUT entry went undetected"
        assert _rules(findings) == {"kernels/compose-lut"}
        assert any("compose[5, 7]" in f.message for f in findings)
        assert all(f.location == A2.name for f in findings)

    @pytest.mark.parametrize("a,b", [(0, 0), (255, 255), (128, 64)])
    def test_any_single_lut_entry_corruption(self, a, b):
        ops = _mutable_ops(A3)
        ops.compose[a, b] = (int(ops.compose[a, b]) + 1) % 256
        ops.compose_flat[a * 256 + b] = ops.compose[a, b]
        assert "kernels/compose-lut" in _rules(verify_ops(A3, ops))

    def test_flat_copy_divergence(self):
        ops = _mutable_ops(A2)
        ops.compose_flat[1234] ^= 0b01
        findings = verify_ops(A2, ops)
        assert _rules(findings) == {"kernels/compose-lut"}
        assert any("compose_flat" in f.message for f in findings)

    def test_swapped_packed_codes(self):
        ops = _mutable_ops(A3)
        ops.pow_codes[0, 1], ops.pow_codes[1, 1] = (
            int(ops.pow_codes[1, 1]), int(ops.pow_codes[0, 1]),
        )
        findings = verify_ops(A3, ops)
        assert _rules(findings) == {"kernels/packed-code"}

    def test_corrupt_decode_table(self):
        ops = _mutable_ops(A2)
        ops.apply[100, 2] = (int(ops.apply[100, 2]) + 1) % 4
        findings = verify_ops(A2, ops)
        # Decode corruption breaks the bit semantics and the packing
        # inverse at once; both are foundational-stage findings.
        assert _rules(findings) <= {"kernels/decode-table", "kernels/packing-weights"}
        assert "kernels/decode-table" in _rules(findings)

    def test_flipped_prediction_bit(self):
        ops = _mutable_ops(A2)
        ops.pred4[1] = not bool(ops.pred4[1])
        findings = verify_ops(A2, ops)
        assert _rules(findings) == {"kernels/pred-table"}

    def test_wrong_init_state(self):
        ops = _mutable_ops(A2)
        ops.init = (A2.initial_state + 1) % A2.num_states
        findings = verify_ops(A2, ops)
        assert _rules(findings) == {"kernels/init-state"}

    def test_corrupt_head_accumulator(self):
        ops = _mutable_ops(A2)
        ops.head_wrong[1, 0, 2] += 1
        findings = verify_ops(A2, ops)
        assert _rules(findings) == {"kernels/run-scoring"}

    def test_corrupt_head_step_only_moves_sparse_offsets(self):
        # head_wrong[..., 0] never enters a closed-form count, but the
        # sparse scorer reads offset 0 as the step from it to [..., 1]:
        # a not-taken run entered in A2's taken state 3 mispredicts at
        # offset 0, which this corruption hides.
        ops = _mutable_ops(A2)
        assert ops.head_wrong[0, 3, 1] == 1
        ops.head_wrong[0, 3, 0] = 1
        findings = verify_ops(A2, ops)
        assert len(findings) == 1
        assert _rules(findings) == {"kernels/run-scoring"}
        assert "sparse scorer marks offsets []" in findings[0].message
        assert "entered in state 3" in findings[0].message

    def test_contrarian_tails_prove_clean(self):
        # Every run tail of a counter predicting against its state
        # mispredicts, so the sparse scorer's tail branch is proved too.
        ops = automaton_ops(CONTRARIAN)
        assert ops.tail_mis.all()
        assert verify_ops(CONTRARIAN, ops) == []

    def test_corrupt_tail_rate_overflows_range(self):
        ops = _mutable_ops(A2)
        ops.tail_mis[0, 0] = 2
        findings = verify_ops(A2, ops)
        assert "kernels/dtype-overflow" in _rules(findings)

    def test_corrupt_const_flag(self):
        ops = _mutable_ops(A2)
        ops.is_const[0] = not bool(ops.is_const[0])
        findings = verify_ops(A2, ops)
        assert _rules(findings) == {"kernels/const-detect"}

    def test_wrong_dtype_short_circuits(self):
        ops = _mutable_ops(A2)
        ops.compose = ops.compose.astype(np.int64)
        findings = verify_ops(A2, ops)
        assert _rules(findings) == {"kernels/dtype-overflow"}

    def test_mutation_reports_cap(self):
        # A fully zeroed LUT must not flood the report.
        ops = _mutable_ops(A2)
        ops.compose[:] = 0
        ops.compose_flat[:] = 0
        findings = verify_ops(A2, ops)
        assert _rules(findings) == {"kernels/compose-lut"}
        assert len(findings) <= 6


class TestGateHonesty:
    def test_gated_specs_are_rejected_honestly(self):
        for spec in default_specs():
            if not supports_vector_scan(spec):
                from repro.check.kernels import _verify_gate

                assert _verify_gate(spec) == []


class TestCorpusSelection:
    def test_explicit_specs_restrict_the_corpus(self):
        findings, examined = check_kernels(specs=[A2, A3])
        assert findings == []
        assert examined == 2
