"""Coded computational ghost imaging: simulation and analysis toolkit."""

__version__ = "0.1.0"

from .codes import (
    CodeSpec,
    DegreeDistribution,
    GeneratorMatrix,
    ParityCheckMatrix,
    SparseRows,
    build_generator,
    derive_parity_check,
    encode,
    load_generator,
    sample_degree,
    save_generator,
    syndrome,
)
from .forward import (
    ChannelParams,
    effective_amplitudes,
    IlluminationEnsemble,
    Measurement,
    SceneImage,
    patterns_from_generator,
    random_speckle,
    sense,
    snr_db_to_linear,
    transmit,
)
from .decoder import (
    BpOptions,
    DecodeDiagnostics,
    DecodeResult,
    count_pmf,
    decode_gf2_bp,
    decode_sum_bp,
    measurement_likelihood,
    symbol_llr,
)
from .baselines import (
    Reconstruction,
    binarize,
    cgi_reconstruct,
    dgi_reconstruct,
    otsu_threshold,
    pinv_reconstruct,
)
from .bound import (
    BoundParams,
    avg_column_hit_prob,
    ber_lower_bound,
    bound_sweep,
    column_hit_prob,
    decoding_error_term,
    rayleigh_ber,
)
from .metrics import (
    FrameStack,
    ber,
    grayscale_stack,
    mean_abs_error,
    normalize,
    psnr,
)
from .scenes import builtin_scene
