"""Base-processor core parameters (Table 1 of the paper).

The pipeline segments and default latencies follow Figure 2:
I (IBOX) = 4, P (PBOX) = 2, Q (QBOX) = 4, R (RBOX) = 4, E (EBOX) = 1,
M (MBOX) = 2 cycles.
"""

from dataclasses import dataclass


@dataclass
class CoreConfig:
    # Widths.
    fetch_chunks_per_cycle: int = 2      # 2 x 8-instruction chunks, 1 thread
    chunk_size: int = 8
    map_width_chunks: int = 1            # PBOX maps one chunk per cycle
    issue_width: int = 8                 # 4 per queue half
    retire_width: int = 8
    # Structure sizes.
    num_thread_contexts: int = 4
    iq_entries: int = 128                # two 64-entry halves
    iq_reserved_per_thread: int = 8      # one chunk per thread (deadlock rule)
    load_queue_entries: int = 64
    store_queue_entries: int = 64
    physical_registers: int = 512
    rate_matching_buffer_chunks: int = 4  # per-thread RMB capacity
    # Pipeline latencies (Figure 2).
    ibox_latency: int = 4
    pbox_latency: int = 2
    qbox_latency: int = 4                # minimum queue traversal
    rbox_latency: int = 4
    mbox_latency: int = 2                # L1D hit / store-queue forward
    # Penalties.
    misfetch_penalty: int = 2            # line-predictor retrain bubble
    redirect_penalty: int = 2            # extra cycles to steer fetch on squash
    # Memory issue limits per cycle (Section 3.4).
    max_mem_issue: int = 4
    max_load_issue: int = 3
    max_store_issue: int = 2
    store_data_delay: int = 2            # data follows address by 2 cycles
    # Thread chooser policy: "rmb" approximates ICOUNT by rate-matching-
    # buffer occupancy (the base machine's policy, Section 3.1); "icount"
    # counts every pre-issue instruction as in Tullsen et al.
    fetch_policy: str = "rmb"
    # Predictor sizes (Table 1).
    line_predictor_entries: int = 28 * 1024
    branch_counter_bits: int = 16
    branch_history_bits: int = 12
    jump_predictor_entries: int = 4096
    ras_depth: int = 32
    store_sets_entries: int = 4096

    def __post_init__(self) -> None:
        if self.iq_entries % 2:
            raise ValueError("instruction queue must split into two halves")
        if self.issue_width < 2:
            raise ValueError("each queue half must issue at least one uop")
        if self.max_load_issue + self.max_store_issue < self.max_mem_issue - 1:
            raise ValueError("memory issue limits inconsistent")
        if min(self.rbox_latency, self.mbox_latency) < 0:
            # A writeback event falls due no earlier than the cycle that
            # issues it (Core._writeback).
            raise ValueError("rbox_latency and mbox_latency must be >= 0")
