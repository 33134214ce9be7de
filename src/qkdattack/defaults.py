"""Built-in default parameter block, which is also the config schema.

Source intensities of 0.5 (signal) and 0.1 (decoy) with equal phases, a
receiver with background rate 1e-7 per pulse and 2% misalignment, and the
reference measured discrimination performance of the interferometric USD
setup. All probabilities are fractions, losses are overall dB (detector
efficiency included; see decoy.total_loss_db).

The CLI accepts exactly these sections and fields, plus channel.eta (an
alternative to channel.loss_db) and usd.ideal. Each field takes the type of
its default value here: a float field takes any finite number, an int field
an integral one, and a bool field only true or false.
"""

DEFAULT_CONFIG = {
    "source": {"mu": 0.5, "nu": 0.1, "theta_s": 0.0, "theta_d": 0.0},
    "channel": {"loss_db": 40.0, "y0": 1e-7, "e_d": 0.02},
    "usd": {"q_mu": 1.18e-3, "q_nu": 1.16e-3, "xi_mu": 0.9690, "xi_nu": 0.9837},
    "solver": {"n_trunc": 20, "enforce_errors": False},
    "sweep": {"start_db": 30.0, "end_db": 50.0, "step_db": 0.1},
    "mc": {"n_pulses": 1_000_000, "seed": 1},
}
