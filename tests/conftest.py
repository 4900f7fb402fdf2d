from hypothesis import settings

# The kernel's and grid caches' properties at 2,000 examples each: pytest --hypothesis-profile=kernel
settings.register_profile("kernel", max_examples=2000, deadline=None)
