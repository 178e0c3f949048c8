"""Tests for metrics (Section 6.4) and the Table 1 configuration."""

import pytest

from repro.core.config import MachineConfig
from repro.core.metrics import (RunResult, ThreadResult, arithmetic_mean,
                                mean_smt_efficiency, smt_efficiency)
from repro.memory.hierarchy import HierarchyConfig
from repro.pipeline.config import CoreConfig


class TestSmtEfficiency:
    def result(self):
        return RunResult(kind="srt", cycles=1000, threads=[
            ThreadResult("a", retired=1000, cycles=1000),   # IPC 1.0
            ThreadResult("b", retired=500, cycles=1000),    # IPC 0.5
        ])

    def test_per_thread_efficiency(self):
        eff = smt_efficiency(self.result(), {"a": 2.0, "b": 1.0})
        assert eff == {"a": 0.5, "b": 0.5}

    def test_mean_is_weighted_speedup(self):
        mean = mean_smt_efficiency(self.result(), {"a": 2.0, "b": 0.5})
        assert mean == pytest.approx((0.5 + 1.0) / 2)

    def test_missing_baseline_raises(self):
        with pytest.raises(KeyError):
            smt_efficiency(self.result(), {"a": 2.0})

    def test_ipc_of(self):
        result = self.result()
        assert result.ipc_of("a") == 1.0
        with pytest.raises(KeyError):
            result.ipc_of("zzz")

    def test_total_ipc(self):
        assert self.result().total_ipc == 1.5

    def test_arithmetic_mean_empty(self):
        assert arithmetic_mean([]) == 0.0


class TestTable1Parameters:
    """The default configuration must be the paper's Table 1 machine."""

    def test_ibox(self):
        config = CoreConfig()
        assert config.fetch_chunks_per_cycle == 2
        assert config.chunk_size == 8
        assert config.line_predictor_entries == 28 * 1024

    def test_qbox(self):
        config = CoreConfig()
        assert config.iq_entries == 128
        assert config.issue_width == 8

    def test_registers(self):
        config = CoreConfig()
        assert config.physical_registers == 512
        assert config.num_thread_contexts == 4
        # 256 architectural (64 x 4 threads) leaves 256 for renaming.

    def test_mbox(self):
        config = CoreConfig()
        assert config.load_queue_entries == 64
        assert config.store_queue_entries == 64
        assert config.max_load_issue == 3
        assert config.max_store_issue == 2
        assert config.max_mem_issue == 4

    def test_pipeline_latencies_figure2(self):
        config = CoreConfig()
        assert config.ibox_latency == 4
        assert config.pbox_latency == 2
        assert config.qbox_latency == 4
        assert config.rbox_latency == 4
        assert config.mbox_latency == 2

    def test_memory_system(self):
        config = HierarchyConfig()
        assert config.l2_size == 3 * 1024 * 1024
        assert config.l2_assoc == 8
        assert config.memory_channels == 10

    def test_store_sets_size(self):
        assert CoreConfig().store_sets_entries == 4096

    def test_rmt_latencies_section63(self):
        config = MachineConfig()
        assert config.srt_line_forward_latency == 4
        assert config.srt_load_forward_latency == 2
        assert config.crt_cross_latency == 4
        assert config.checker_latency == 8

    def test_invalid_iq_rejected(self):
        with pytest.raises(ValueError):
            CoreConfig(iq_entries=127)

    def test_half_without_issue_slot_rejected(self):
        with pytest.raises(ValueError):
            CoreConfig(issue_width=1)

    def test_unknown_trailing_fetch_mode_rejected(self):
        with pytest.raises(ValueError, match="trailing_fetch_mode"):
            MachineConfig(trailing_fetch_mode="predictor")


class TestMachineFactory:
    def test_unknown_kind_rejected(self):
        from repro.core.machine import make_machine
        from repro.isa.generator import generate_benchmark

        with pytest.raises(ValueError, match="unknown machine kind"):
            make_machine("quantum", MachineConfig(),
                         [generate_benchmark("gcc")])

    def test_all_kinds_constructible(self):
        from repro.core.machine import make_machine
        from repro.isa.generator import generate_benchmark

        program = generate_benchmark("gcc")
        for kind in ("base", "base2", "srt", "lockstep", "crt"):
            machine = make_machine(kind, MachineConfig(), [program])
            assert machine.kind in ("base", "srt", "lockstep", "crt")

    def test_duplicate_program_names_rejected(self):
        from repro.core.machine import BaseMachine
        from repro.isa.generator import generate_benchmark

        program = generate_benchmark("gcc")
        with pytest.raises(ValueError, match="duplicate"):
            BaseMachine(MachineConfig(), [program, program])
