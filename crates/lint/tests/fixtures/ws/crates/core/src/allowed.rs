// Suppression fixture: the off-schema metric name below carries a justified
// allow directive, so this file must contribute zero violations.

pub fn record(reg: &mut crate::metrics_user::Registry) {
    // utps-lint: allow(metrics-schema) — fixture demonstrating a justified suppression
    reg.counter_inc("fixture.only");
}
