pub fn entry() -> u32 {
    helper(1)
}

fn helper(x: u32) -> u32 {
    x + 1
}

pub fn only_tests_call_me() -> u32 {
    2
}

#[cfg(test)]
mod tests {
    #[test]
    fn pinned() {
        assert_eq!(super::only_tests_call_me(), 2);
    }
}
