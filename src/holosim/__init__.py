"""Deterministic multitape Turing machine simulation in square-root
space: block decomposition, interval summaries with a merge algebra,
a static causal tree over blocks, a rolling-boundary streaming
simulator with full space accounting, and constant-size witness
programs that re-expand any summarized interval on demand.
"""

from .blocks import (
    POLICY_BOUNDARY,
    POLICY_FULL,
    IntervalSummary,
    TapeWindow,
    check_block_respecting,
    decompose,
    direct_summary,
    interval_summary,
    leaf_summary,
    merge,
    screen_area,
)
from .codec import (
    decode_configuration,
    decode_configuration_exact,
    decode_history,
    decode_history_exact,
    decode_summary,
    decode_summary_exact,
    decode_svarint,
    decode_uvarint,
    encode_configuration,
    encode_history,
    encode_summary,
    encode_svarint,
    encode_uvarint,
)
from .ctree import (
    build_tree,
    label_tree,
    split_left_count,
    time_to_leaf,
    tree_to_json,
)
from .errors import (
    CodecError,
    HolosimError,
    InternalInvariantError,
    MachineFormatError,
    MergeIncompatible,
    ModelViolation,
    NonBlockRespecting,
    RunEndedEarly,
    StaleWindowReentry,
    StepFromHaltError,
    WindowEscape,
)
from .ledger import LedgerRow, ScreenLedger, attach_ledger
from .machine import (
    Configuration,
    HistoryCursor,
    MachineSpec,
    RunHistory,
    RunRecord,
    build_machine,
    initial_configuration,
    parse_machine,
    probe_run_length,
    run,
    serialize_machine,
)
from .replay import replay_all, replay_from_summary
from .samples import SAMPLE_NAMES, counter_input, load_sample, palin_input, sample_text
from .scaling import (
    CSV_HEADER,
    ScalingReport,
    ScalingRow,
    area_law_study,
    fit_loglog,
    render_scaling_svg,
    report_to_csv,
)
from .streaming import (
    CaptureSink,
    RollingState,
    default_block_length,
    holo_run,
    reconstruct_at,
)
from .witness import (
    KIND_HISTORY,
    KIND_POINTWISE,
    build_witness,
    parse_witness,
    run_witness,
)

__version__ = "0.1.0"
