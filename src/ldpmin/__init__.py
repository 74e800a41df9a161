"""Locally private minimum (and maximum) finding over user-held values.

Users hold real values in [-1, 1]; an untrusted aggregator estimates the
smallest one without ever seeing anything but randomized-response bits.
The package bundles the privacy primitives, the interactive bisection
protocol, parameter schedules, synthetic data models with controllable
tail fatness, closed-form error bounds, an experiment harness, and a
reference TCP client/server pair demonstrating the protocol end to end.
"""

__version__ = "0.1.0"
