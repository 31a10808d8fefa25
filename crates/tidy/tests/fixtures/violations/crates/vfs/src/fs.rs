//! Fixture: error values built on the success path.

pub fn eager(file: Option<u32>) -> Result<u32, VfsError> {
    file.ok_or(VfsError::NotFound("gone".into()))
}

pub fn eager_on_the_next_line(block: Option<u32>) -> Result<u32, RecoveryError> {
    block.ok_or(
        RecoveryError::BlockNotResident { file: 1, block: 2 },
    )
}

pub fn lazy(file: Option<u32>) -> Result<u32, DbError> {
    file.ok_or_else(|| DbError::InstanceDown)
}

pub fn not_one_of_the_error_enums(byte: Option<u8>) -> Result<u8, DecodeError> {
    byte.ok_or(DecodeError { context: "value tag" })
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_be_eager() {
        assert!(None::<u32>.ok_or(DbError::InstanceDown).is_err());
    }
}
