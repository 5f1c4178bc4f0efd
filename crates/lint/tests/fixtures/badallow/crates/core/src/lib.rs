// A0 fixture: an allow directive with no justification is itself a
// violation (the suppression still applies, but the directive is audited).

pub fn record(reg: &mut Registry) {
    // utps-lint: allow(metrics-schema)
    reg.counter_inc("fixture.only");
}

pub struct Registry;

impl Registry {
    pub fn counter_inc(&mut self, _name: &'static str) {}
}
