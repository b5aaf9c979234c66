# Minimal registry stub for the sptd_lint self-test: just the four
# lists the bench-field-registry rule parses. The fixture bench emits
# every entry below except one seeded stale registration, plus one
# unregistered field and one allow-marked one.
DEFAULT_METRICS = [
    "seconds",
]

DEFAULT_DEFICIT_METRICS = [
    "fit",
]

DEFAULT_COUNTERS = [
    "steals",
]

KNOWN_IDENTITY_FIELDS = [
    "bench",
    "retired_field",  # VIOLATION bench-field-registry: no bench emits it
]
