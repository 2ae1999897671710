"""Edge-device analytics for chronic-disease monitoring.

Signal path: ECG/respiration preprocessing, QRS detection, HRV and
respiration features. Decision path: XML rules, severity classifiers,
weighted indices. Device path: measurement store, transmission policy,
canonical outbound XML, batch CLI.

Each public name is imported from the module that defines it, for example
`edgevitals.pipeline.run_patient` or `edgevitals.rules.parse_rules`; importing
the package itself loads no submodule.
"""

__version__ = "0.1.0"
