//! Pickling and the type registry (§2.2, §7).
//!
//! "TDB stores abstract objects that the application can access without
//! explicitly invoking encryption, validation, and pickling. TDB pickles
//! objects using application-provided methods so the stored representation
//! is compact and portable." The object store also "adds safety against
//! errors in application programs" via type checking: every stored object
//! carries a type tag that is checked on unpickling.

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

use crate::errors::{ObjectError, Result};

/// An application object storable in the object store.
///
/// Implementations provide the pickling method; unpickling is registered
/// with the [`TypeRegistry`]. Objects are stored and cached as immutable
/// values — an update replaces the whole object.
pub trait StoredObject: Send + Sync + 'static {
    /// A small application-chosen tag identifying the concrete type.
    fn type_tag(&self) -> u32;

    /// Serializes the object compactly.
    fn pickle(&self) -> Vec<u8>;

    /// Upcast hook for downcasting on reads.
    fn as_any(&self) -> &dyn Any;
}

/// A function that unpickles bytes into an object of one registered type.
pub type Unpickler = fn(&[u8]) -> Result<Arc<dyn StoredObject>>;

/// Maps type tags to unpicklers.
#[derive(Default)]
pub struct TypeRegistry {
    unpicklers: HashMap<u32, Unpickler>,
}

impl TypeRegistry {
    /// An empty registry.
    pub fn new() -> TypeRegistry {
        TypeRegistry::default()
    }

    /// Registers the unpickler for `tag`.
    ///
    /// # Panics
    ///
    /// Panics if `tag` is already registered with a different function —
    /// always a programming error worth failing loudly on.
    pub fn register(&mut self, tag: u32, unpickler: Unpickler) {
        if let Some(existing) = self.unpicklers.get(&tag) {
            assert!(
                std::ptr::fn_addr_eq(*existing, unpickler),
                "type tag {tag} registered twice with different unpicklers"
            );
            return;
        }
        self.unpicklers.insert(tag, unpickler);
    }

    /// Unpickles a stored record (tag + body).
    ///
    /// # Errors
    ///
    /// Fails on unknown tags or malformed bodies.
    pub fn unpickle(&self, record: &[u8]) -> Result<Arc<dyn StoredObject>> {
        let Some((tag, body)) = record.split_first_chunk::<4>() else {
            return Err(ObjectError::BadPickle(
                "record shorter than a type tag".into(),
            ));
        };
        let tag = u32::from_le_bytes(*tag);
        let unpickler = self
            .unpicklers
            .get(&tag)
            .ok_or(ObjectError::UnknownType(tag))?;
        unpickler(body)
    }

    /// Pickles an object into a stored record (tag + body).
    pub fn pickle(obj: &dyn StoredObject) -> Vec<u8> {
        let body = obj.pickle();
        let mut out = Vec::with_capacity(4 + body.len());
        out.extend_from_slice(&obj.type_tag().to_le_bytes());
        out.extend_from_slice(&body);
        out
    }
}

/// Downcasts a stored object to a concrete type, failing with a type-check
/// error (not a panic) on mismatch — the §7 safety property.
pub fn downcast<T: StoredObject>(obj: Arc<dyn StoredObject>) -> Result<Arc<T>> {
    if obj.as_any().is::<T>() {
        // Re-wrap through Any: Arc<dyn StoredObject> cannot be downcast
        // directly, so go through the raw pointer.
        let raw: *const dyn StoredObject = Arc::into_raw(obj);
        // SAFETY: the `is::<T>` check above guarantees the concrete type
        // behind the vtable is `T`; converting the data pointer to `*const
        // T` and reconstructing the Arc preserves the refcount.
        unsafe { Ok(Arc::from_raw(raw as *const T)) }
    } else {
        Err(ObjectError::TypeMismatch {
            expected: std::any::type_name::<T>().to_string(),
            found_tag: obj.type_tag(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Account {
        balance: i64,
    }

    impl StoredObject for Account {
        fn type_tag(&self) -> u32 {
            1
        }
        fn pickle(&self) -> Vec<u8> {
            self.balance.to_le_bytes().to_vec()
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    fn unpickle_account(body: &[u8]) -> Result<Arc<dyn StoredObject>> {
        let arr: [u8; 8] = body
            .try_into()
            .map_err(|_| ObjectError::BadPickle("account body".into()))?;
        Ok(Arc::new(Account {
            balance: i64::from_le_bytes(arr),
        }))
    }

    struct Other;
    impl StoredObject for Other {
        fn type_tag(&self) -> u32 {
            2
        }
        fn pickle(&self) -> Vec<u8> {
            Vec::new()
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn pickle_unpickle_roundtrip() {
        let mut reg = TypeRegistry::new();
        reg.register(1, unpickle_account);
        let record = TypeRegistry::pickle(&Account { balance: -42 });
        let obj = reg.unpickle(&record).unwrap();
        let account = downcast::<Account>(obj).unwrap();
        assert_eq!(account.balance, -42);
    }

    #[test]
    fn unknown_tag_rejected() {
        let reg = TypeRegistry::new();
        let record = TypeRegistry::pickle(&Account { balance: 1 });
        assert!(matches!(
            reg.unpickle(&record),
            Err(ObjectError::UnknownType(1))
        ));
    }

    #[test]
    fn short_record_rejected() {
        let reg = TypeRegistry::new();
        assert!(matches!(
            reg.unpickle(&[1, 2]),
            Err(ObjectError::BadPickle(_))
        ));
    }

    #[test]
    fn downcast_type_check() {
        let obj: Arc<dyn StoredObject> = Arc::new(Other);
        let err = downcast::<Account>(obj).unwrap_err();
        assert!(matches!(
            err,
            ObjectError::TypeMismatch { found_tag: 2, .. }
        ));
    }

    #[test]
    fn double_registration_same_fn_ok() {
        let mut reg = TypeRegistry::new();
        reg.register(1, unpickle_account);
        reg.register(1, unpickle_account);
    }
}
