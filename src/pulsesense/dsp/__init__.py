from .filters import (
    FilterSpec,
    FilterState,
    design_bandpass,
    filter_values,
    frequency_response,
)
from .pipeline import (
    MODES,
    AmplitudeSeries,
    Band,
    PipelineConfig,
    Savgol,
    WindowSegment,
    amplitude,
    mode_spec,
    read_segment_dump,
    remove_dc,
    run_pipeline,
    run_pipeline_config,
    segment,
    segments_to_arrays,
    standardize,
    window_length,
    write_segment_dump,
)
from .savgol import savgol_kernel, smooth_padded, smooth_values

__all__ = [
    "MODES", "AmplitudeSeries", "Band", "FilterSpec", "FilterState",
    "PipelineConfig", "Savgol", "WindowSegment", "amplitude", "design_bandpass",
    "filter_values", "frequency_response", "mode_spec",
    "read_segment_dump", "remove_dc", "run_pipeline", "run_pipeline_config",
    "savgol_kernel", "segment", "segments_to_arrays", "smooth_padded",
    "smooth_values", "standardize", "window_length", "write_segment_dump",
]
