pub struct Meter(u32);

impl Meter {
    pub fn read(&self) -> u32 {
        self.0
    }
}

pub fn entry() -> u32 {
    [1u32, 2].iter().map(double).sum::<u32>() + Meter(3).read()
}

fn double(x: &u32) -> u32 {
    2 * x
}
