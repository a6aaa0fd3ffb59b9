//! The facade's error type.
//!
//! [`TdbError`] wraps the chunk-store and object-store errors. Its stable
//! numeric codes are assigned in one table, [`TdbError::code`] in the
//! [`crate::command`] layer; an error crosses the network as a
//! [`crate::WireError`]: its code, its fault class and its `Display`.

use std::fmt;

use tdb_core::CoreError;
use tdb_object::errors::ObjectError;

/// Unified error type for the facade.
#[derive(Debug)]
pub enum TdbError {
    /// Chunk/backup store errors (including tamper detection).
    Core(CoreError),
    /// Object/collection store errors.
    Object(ObjectError),
}

impl fmt::Display for TdbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TdbError::Core(e) => write!(f, "{e}"),
            TdbError::Object(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TdbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TdbError::Core(e) => Some(e),
            TdbError::Object(e) => Some(e),
        }
    }
}

impl From<CoreError> for TdbError {
    fn from(e: CoreError) -> Self {
        TdbError::Core(e)
    }
}

impl From<ObjectError> for TdbError {
    fn from(e: ObjectError) -> Self {
        TdbError::Object(e)
    }
}

impl TdbError {
    /// True when the cause is detected tampering.
    pub fn is_tamper(&self) -> bool {
        match self {
            TdbError::Core(e) => e.is_tamper(),
            TdbError::Object(e) => e.is_tamper(),
        }
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, TdbError>;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::command::{Response, WireError};
    use tdb_core::codec::Dec;
    use tdb_core::{FaultClass, PartitionId, TamperKind};
    use tdb_crypto::{CipherKind, HashKind};
    use tdb_object::ObjectId;

    /// One value of every `TamperKind` and every other `CoreError`
    /// variant, each in code order.
    pub(crate) fn core_errors() -> Vec<CoreError> {
        let chunk = ObjectId::from_parts(PartitionId(2), 17).0;
        let tamper = [
            TamperKind::ChunkHashMismatch(chunk),
            TamperKind::UndecryptableChunk { location: 9000 },
            TamperKind::MisdirectedChunk {
                expected: chunk,
                location: 77,
            },
            TamperKind::LogHashMismatch,
            TamperKind::BadCommitSignature { location: 1 },
            TamperKind::CommitSetHashMismatch { location: 2 },
            TamperKind::NonSequentialCommitCount {
                expected: 5,
                got: 9,
            },
            TamperKind::CounterWindowViolated { trusted: 8, log: 2 },
            TamperKind::NotALeader { location: 512 },
            TamperKind::NoValidLeader,
            TamperKind::BadBackup("set incomplete".into()),
            TamperKind::BadSuiteRecord,
        ];
        let rest = [
            CoreError::Store(tdb_storage::StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "socket timed out",
            ))),
            CoreError::Crypto(tdb_crypto::CryptoError::BadPadding),
            CoreError::NotAllocated(chunk),
            CoreError::NotWritten(chunk),
            CoreError::NoSuchPartition(PartitionId(9)),
            CoreError::PartitionExists(PartitionId(1)),
            CoreError::ChunkTooLarge {
                size: 70000,
                max: 65000,
            },
            CoreError::OutOfSpace,
            CoreError::Corrupt("zero-length record".into()),
            CoreError::RestoreConstraint("chain broken".into()),
            CoreError::RestoreDenied("policy".into()),
            CoreError::BatchAborted {
                reason: "batch-mate failed".into(),
                class: FaultClass::Transient,
            },
            CoreError::DegradedMode("write interrupted".into()),
            CoreError::Poisoned("hash mismatch during commit".into()),
            CoreError::Busy("a transaction is already open on this session".into()),
            CoreError::UnsupportedFormat { version: 1 },
            CoreError::SuiteMismatch {
                stored: (CipherKind::TripleDes, HashKind::Sha1),
                configured: (CipherKind::Aes128, HashKind::Sha1),
            },
        ];
        tamper
            .into_iter()
            .map(CoreError::TamperDetected)
            .chain(rest)
            .collect()
    }

    /// One value of every `ObjectError` variant but `Core`, in code order.
    pub(crate) fn object_errors() -> Vec<ObjectError> {
        let id = ObjectId::from_parts(PartitionId(2), 17);
        vec![
            ObjectError::NotFound(id),
            ObjectError::UnknownType(901),
            ObjectError::BadPickle("truncated".into()),
            ObjectError::TypeMismatch {
                expected: "bank::Account".into(),
                found_tag: 7,
            },
            ObjectError::LockTimeout(id),
            ObjectError::MvccDisabled,
            ObjectError::TxFinished,
        ]
    }

    /// Sends `err` as a `Response::Error` and returns what the peer decodes.
    fn over_the_wire(err: &TdbError) -> WireError {
        let buf = Response::Error(WireError::from(err)).encode_vec();
        let mut d = Dec::new(&buf);
        let back = Response::decode(&mut d).expect("decode");
        assert_eq!(d.remaining(), 0, "{err}");
        match back {
            Response::Error(w) => w,
            other => panic!("{err} decoded as {other:?}"),
        }
    }

    /// Codes are part of the wire protocol: every variant keeps the number
    /// it has always had, and no two share one.
    #[test]
    fn codes_are_unique_and_stable() {
        let core: Vec<u16> = core_errors()
            .into_iter()
            .map(|e| TdbError::Core(e).code())
            .collect();
        let tamper_codes = (100..=110).chain([112]);
        assert_eq!(core, tamper_codes.chain(1..=17).collect::<Vec<u16>>());
        let object: Vec<u16> = object_errors()
            .into_iter()
            .map(|e| TdbError::Object(e).code())
            .collect();
        let retired = 206;
        assert_eq!(
            object,
            (201..=208).filter(|&c| c != retired).collect::<Vec<u16>>()
        );

        let mut seen = std::collections::HashSet::new();
        assert!(core.iter().chain(&object).all(|code| seen.insert(*code)));
        assert_eq!(TdbError::Core(CoreError::OutOfSpace).code(), 8);
        assert_eq!(
            TdbError::Core(CoreError::TamperDetected(TamperKind::NoValidLeader)).code(),
            109
        );
        assert_eq!(
            TdbError::Object(ObjectError::Core(CoreError::OutOfSpace)).code(),
            8
        );
    }

    /// A core error reaches the peer with its code, its `Display` and its
    /// fault class; a tamper always reads as an integrity fault.
    #[test]
    fn wire_round_trip_preserves_code_display_and_class() {
        for err in core_errors() {
            let (class, tamper) = (err.fault_class(), err.is_tamper());
            let err = TdbError::Core(err);
            let w = over_the_wire(&err);
            assert_eq!(w.code, err.code(), "{err}");
            assert_eq!(w.message, err.to_string());
            assert_eq!(w.class, Some(class), "{err}");
            if tamper {
                assert_eq!(w.class, Some(FaultClass::Integrity), "{err}");
            }
        }
    }

    /// An object-layer error reaches the peer with its code and `Display`
    /// and no invented class; one wrapping a core error keeps its cause's
    /// code and class, so a tamper the object layer found reads as one.
    #[test]
    fn wire_round_trip_preserves_code_and_display() {
        for err in object_errors() {
            let err = TdbError::Object(err);
            let w = over_the_wire(&err);
            assert_eq!(w.code, err.code(), "{err}");
            assert_eq!(w.message, err.to_string());
            assert_eq!(w.class, None, "{err}");
        }
        for (direct, cause) in core_errors().into_iter().zip(core_errors()) {
            let (class, tamper) = (cause.fault_class(), cause.is_tamper());
            let err = TdbError::Object(ObjectError::Core(cause));
            assert_eq!(err.is_tamper(), tamper, "{err}");
            let w = over_the_wire(&err);
            assert_eq!(w.code, TdbError::Core(direct).code(), "{err}");
            assert_eq!(w.message, err.to_string());
            assert_eq!(w.class, Some(class), "{err}");
            if tamper {
                assert_eq!(w.class, Some(FaultClass::Integrity), "{err}");
            }
        }
    }
}
