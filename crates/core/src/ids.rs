//! Identifier newtypes for applications, specifications, and
//! configurations.
//!
//! An identifier is a shared, immutable string (`Arc<str>`): cloning
//! one into a frame record, a SCRAM command or an event is a
//! reference-count bump, never a copy of the name. Equality, ordering,
//! hashing and the serialized form are those of the plain string.

use std::fmt;
use std::sync::Arc;

macro_rules! string_id {
    ($(#[$meta:meta])* $name:ident) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(Arc<str>);

        impl $name {
            /// Creates an identifier from a name.
            pub fn new(name: impl Into<String>) -> Self {
                $name(name.into().into())
            }

            /// The identifier as a string slice.
            pub fn as_str(&self) -> &str {
                &self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.0)
            }
        }

        impl From<&str> for $name {
            fn from(name: &str) -> Self {
                $name(name.into())
            }
        }

        impl From<String> for $name {
            fn from(name: String) -> Self {
                $name(name.into())
            }
        }

        // Written by hand through the string form (the derive would
        // need `Deserialize for Arc<str>`): the JSON is the bare string.
        impl serde::Serialize for $name {
            fn to_content(&self) -> serde::Content {
                serde::Content::Str(self.as_str().to_owned())
            }
        }

        impl serde::Deserialize for $name {
            fn from_content(content: &serde::Content) -> Result<Self, serde::DeError> {
                content
                    .as_str()
                    .map($name::from)
                    .ok_or_else(|| serde::DeError::expected("string", content))
            }
        }

        impl AsRef<str> for $name {
            fn as_ref(&self) -> &str {
                &self.0
            }
        }
    };
}

string_id! {
    /// Identifier of an application (`aᵢ ∈ Apps`).
    AppId
}

string_id! {
    /// Identifier of a functional specification (`sᵢⱼ ∈ Sᵢ`).
    ///
    /// The distinguished specification [`SpecId::off`] denotes an
    /// application that is not running in a configuration (the paper's
    /// Minimal Service configuration turns the autopilot off); it is
    /// available to every application without being declared.
    SpecId
}

string_id! {
    /// Identifier of a system configuration (`cᵢ ∈ C`).
    ConfigId
}

impl SpecId {
    /// The distinguished "not running" specification.
    pub fn off() -> Self {
        SpecId::new("off")
    }

    /// Returns `true` if this is the distinguished "off" specification.
    pub fn is_off(&self) -> bool {
        &*self.0 == "off"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_roundtrip_and_compare() {
        let a = AppId::new("fcs");
        assert_eq!(a.as_str(), "fcs");
        assert_eq!(a.to_string(), "fcs");
        assert_eq!(AppId::from("fcs"), a);
        assert_eq!(AppId::from(String::from("fcs")), a);
        assert_eq!(a.as_ref(), "fcs");
        assert!(AppId::new("a") < AppId::new("b"));
    }

    #[test]
    fn off_spec_is_distinguished() {
        assert!(SpecId::off().is_off());
        assert!(!SpecId::new("full").is_off());
        assert_eq!(SpecId::off(), SpecId::new("off"));
    }

    #[test]
    fn ids_order_and_hash_as_their_names() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};

        fn hash<T: Hash + ?Sized>(value: &T) -> u64 {
            let mut h = DefaultHasher::new();
            value.hash(&mut h);
            h.finish()
        }
        let names = ["", "a", "ab", "b", "full-service", "minimal-service", "off"];
        for x in names {
            assert_eq!(hash(&AppId::new(x)), hash(x));
            assert_eq!(hash(&SpecId::new(x)), hash(x));
            assert_eq!(hash(&ConfigId::new(x)), hash(x));
            for y in names {
                assert_eq!(AppId::new(x).cmp(&AppId::new(y)), x.cmp(y));
                assert_eq!(SpecId::new(x).cmp(&SpecId::new(y)), x.cmp(y));
                assert_eq!(ConfigId::new(x).cmp(&ConfigId::new(y)), x.cmp(y));
                assert_eq!(AppId::new(x) == AppId::new(y), x == y);
            }
        }
        assert_eq!(format!("{:?}", AppId::new("fcs")), r#"AppId("fcs")"#);
    }

    #[test]
    fn clones_share_the_name() {
        let a = ConfigId::new("full-service");
        let b = a.clone();
        assert_eq!(a, b);
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
    }

    #[test]
    fn every_id_round_trips_through_json() {
        for name in ["fcs", "full-service", "off", "with \"quotes\" and ünïcode"] {
            let app = AppId::new(name);
            let json = serde_json::to_string(&app).unwrap();
            assert_eq!(json, serde_json::to_string(name).unwrap());
            assert_eq!(serde_json::from_str::<AppId>(&json).unwrap(), app);
            let spec = SpecId::new(name);
            let json = serde_json::to_string(&spec).unwrap();
            assert_eq!(serde_json::from_str::<SpecId>(&json).unwrap(), spec);
            let config = ConfigId::new(name);
            let json = serde_json::to_string(&config).unwrap();
            assert_eq!(serde_json::from_str::<ConfigId>(&json).unwrap(), config);
        }
        assert!(serde_json::from_str::<AppId>("7").is_err());
    }

    #[test]
    fn serde_is_transparent() {
        let c = ConfigId::new("full-service");
        let json = serde_json::to_string(&c).unwrap();
        assert_eq!(json, "\"full-service\"");
        let back: ConfigId = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }
}
