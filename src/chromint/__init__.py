"""chromint: simulation and analysis of chromatic intensity interferometry
with color-erasure detectors."""

__version__ = "0.1.0"

from .erasure import (  # noqa: F401
    ColorQubitState,
    DetectorSetting,
    effective_rotation,
    erasure_overlap,
    post_select,
    reduced_signal_density,
)
from .fock import (  # noqa: F401
    CoherentSpec,
    FockBasis,
    TripleModeState,
    TrilinearHamiltonian,
    evolve_brute_force,
    evolve_closed_form,
    inner_product,
)
from .interferometry import (  # noqa: F401
    CoincidenceResult,
    InterferometerGeometry,
    amplitudes,
    coincidence_single_photon,
    coincidence_superposition,
    coincidence_thermal,
    delay_scan,
    fringe_phase,
    time_average_superposition,
)
from .stochastic import (  # noqa: F401
    EventStream,
    G2Curve,
    ThermalFieldModel,
    estimate_g2,
    fringe_fft,
    gate_time_study,
    simulate_events,
)
