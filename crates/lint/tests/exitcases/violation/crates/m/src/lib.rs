//! Exit-code fixture: one L2 violation.

pub fn first(v: &[f64]) -> f64 {
    *v.first().unwrap()
}
