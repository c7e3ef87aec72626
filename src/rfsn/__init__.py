"""Physical-layer and energy-budget simulator for concrete-embedded backscatter nodes."""

from .channel import (
    IncidentPowerTable,
    NoiseModel,
    WBurstModel,
    interference_symbol_error_rate,
    permittivity_from_shift,
)
from .chirp import (
    ChirpParams,
    PowerSpectrum,
    derive_params,
    instantaneous_frequency,
    modulate_ideal,
    modulate_quantized,
    quantize_toggles,
    spectrum,
)
from .errors import CalibrationError, ConfigurationError, RfsnError
from .harness import (
    BerEngine,
    ExperimentConfig,
    calibrate_composite_gain,
    fit_passive_efficiency_scale,
    load_config,
    parse_config,
    run_ber_sweep,
    run_charge_sweep,
    run_theory_report,
)
from .powersim import (
    ActiveNodeFSM,
    Capacitor,
    HarvesterModel,
    LeakageCurve,
    PassiveNodeModel,
    SimTrace,
    euler_step,
    min_startup_incident_power,
    passive_steady_state,
    run_active_fsm,
    time_to_voltage,
)
from .rxdsp import (
    BerResult,
    ber_theory,
    demodulate_stream,
    effective_snr,
    qfunc,
    score,
    snr_for_ber,
)
from .waveform import Waveform

__version__ = "0.1.0"
