// Seeded violation: a bench field absent from every bench_compare.py
// registry list. Never compiled.

void emit(JsonRecord& rec) {
  rec.field("bench", "fixture")                 // fine: registered identity
      .field("seconds", 1.0)                    // fine: registered metric
      .field("fit", 0.5)                        // fine: registered deficit
      .field("steals", 0)                       // fine: registered counter
      .field("mystery_knob", 3);                // VIOLATION bench-field-registry
  // sptd-lint: allow(bench-field-registry) marker fixture, stays quiet
  rec.field("waived_unregistered_field", 1);
}
