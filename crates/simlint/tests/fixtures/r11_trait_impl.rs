use std::fmt;
use std::ops::Add;

pub struct Gb(f64);

impl Add for Gb {
    type Output = Gb;
    fn add(self, o: Gb) -> Gb {
        Gb(self.0 + o.0)
    }
}

impl fmt::Display for Gb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} GB", self.0)
    }
}

pub trait Scaled {
    fn scale(&self) -> f64 {
        1.0
    }
}

pub fn entry() -> String {
    (Gb(1.0) + Gb(2.0)).to_string()
}
