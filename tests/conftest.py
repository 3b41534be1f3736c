from hypothesis import HealthCheck, Phase, settings

# no shrink phase: a derandomized failure is reported as drawn, in seconds, where
# shrinking it could take minutes
settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)
settings.load_profile("ci")
