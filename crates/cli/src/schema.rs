//! The machinery behind the scenario schema.
//!
//! The schema itself is one table: the `schema!` invocation in
//! `scenario.rs`, which names every field once with its Rust type, its
//! bound ([`Kind`]), its default and a one-line doc. This module turns
//! that table into the typed structs and derives from it everything else
//! the file format needs:
//! - decoding, which names the field path of a missing value, of a value
//!   of the wrong JSON type and of an unknown member of any object;
//! - encoding, member for member in table order, an absent optional
//!   value written as `null` or, where the table says `omit`, left out;
//! - the per-field checks [`Scenario::validate`](crate::Scenario::validate)
//!   runs (bounds, probabilities, allowed strings);
//! - [`Field`] descriptors, from which the README's field reference
//!   ([`reference`]) and the scenario fuzz test read.

use cmi_obs::Json;

use crate::ScenarioError;

/// Integers at or above this are out of reach of the JSON model, which
/// decodes integers exactly up to 2^53: a field bounded here or above
/// has no bound a scenario file can cross.
pub const JSON_MAX_INT: u64 = 1 << 53;

/// The values a field admits beyond its JSON type.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// An integer in `0..=max` (or `1..=max` when `positive`); `unit`
    /// follows the limit in messages.
    Int {
        /// Whether 0 is rejected.
        positive: bool,
        /// Largest value admitted.
        max: u64,
        /// `"ms"` for virtual milliseconds, else empty.
        unit: &'static str,
    },
    /// A number in [0, 1].
    Probability,
    /// A finite number.
    Finite,
    /// `true` or `false`.
    Bool,
    /// A string: one of the listed values, or any string when the list
    /// is empty.
    Str(&'static [&'static str]),
    /// An object with the listed fields.
    Obj(&'static [Field]),
}

/// One field of the schema table.
#[derive(Debug)]
pub struct Field {
    /// JSON member name (the Rust field has the same name).
    pub key: &'static str,
    /// What its values (each element, for an array) may be.
    pub kind: Kind,
    /// Whether the member is an array of `kind`.
    pub list: bool,
    /// The default's JSON, or `None` for a required field.
    pub default: Option<fn() -> Json>,
    /// Whether an absent value is left out of the encoding (else `null`).
    pub omit: bool,
    /// One-line description.
    pub doc: &'static str,
}

impl Kind {
    /// An integer kind; see [`Kind::Int`].
    pub const fn int(positive: bool, max: u64, unit: &'static str) -> Kind {
        Kind::Int {
            positive,
            max,
            unit,
        }
    }

    /// Whether `n` is admitted, for the numeric kinds.
    pub fn admits(self, n: f64) -> bool {
        match self {
            Kind::Int { positive, max, .. } => {
                n >= f64::from(u8::from(positive)) && n <= max as f64
            }
            Kind::Probability => (0.0..=1.0).contains(&n),
            _ => n.is_finite(),
        }
    }

    fn check_int(self, path: &str, n: u64) -> Result<(), ScenarioError> {
        match self {
            Kind::Int { positive: true, .. } if n == 0 => {
                Err(invalid(format!("{path} must be positive, got 0")))
            }
            Kind::Int { max, unit, .. } if n > max => Err(invalid(format!(
                "{path} must be at most {max}{}, got {n}",
                spaced(unit)
            ))),
            _ => Ok(()),
        }
    }

    /// The README's description of the values.
    fn describe(self) -> String {
        match self {
            Kind::Int {
                positive,
                max,
                unit,
            } => {
                let low = u8::from(positive);
                let unit = spaced(unit);
                if max >= JSON_MAX_INT {
                    format!("integer ≥ {low}{unit}")
                } else {
                    format!("integer in {low}..={max}{unit}")
                }
            }
            Kind::Probability => "number in [0, 1]".into(),
            Kind::Finite => "finite number".into(),
            Kind::Bool => "boolean".into(),
            Kind::Str([]) => "string".into(),
            Kind::Str(values) => format!("one of `{}`", values.join("`, `")),
            Kind::Obj(_) => "object".into(),
        }
    }
}

fn spaced(unit: &str) -> String {
    if unit.is_empty() {
        String::new()
    } else {
        format!(" {unit}")
    }
}

fn invalid(msg: String) -> ScenarioError {
    ScenarioError::Invalid(msg)
}

/// `path` as errors name it: the root object is "scenario".
fn ctx(path: &str) -> &str {
    if path.is_empty() {
        "scenario"
    } else {
        path
    }
}

/// The path of member `key` of the object at `path`.
pub(crate) fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

fn wrong_type(path: &str, what: &str) -> ScenarioError {
    ScenarioError::Parse(format!("{} must be {what}", ctx(path)))
}

/// A Rust type a schema field can have.
pub(crate) trait Value: Sized {
    /// The kind of a field of this type the table leaves unbounded.
    const KIND: Kind;
    /// Whether the JSON value is an array.
    const LIST: bool = false;
    /// Decodes `v`, the value at `path`; an integer outside `kind`'s
    /// bound is an error here already, before it could be narrowed.
    fn decode(v: &Json, path: &str, kind: Kind) -> Result<Self, ScenarioError>;
    /// The JSON this value is written as.
    fn encode(&self) -> Json;
    /// Applies the field's per-field rule.
    fn check(&self, path: &str, kind: Kind) -> Result<(), ScenarioError>;
}

macro_rules! int_value {
    ($($t:ty),*) => {$(
        impl Value for $t {
            const KIND: Kind = Kind::int(false, <$t>::MAX as u64, "");
            fn decode(v: &Json, path: &str, kind: Kind) -> Result<Self, ScenarioError> {
                let n = v
                    .as_u64()
                    .ok_or_else(|| wrong_type(path, "a non-negative integer"))?;
                kind.check_int(path, n)?;
                <$t>::try_from(n).map_err(|_| {
                    invalid(format!("{path} must be at most {}, got {n}", <$t>::MAX))
                })
            }
            fn encode(&self) -> Json {
                Json::Num(*self as f64)
            }
            fn check(&self, path: &str, kind: Kind) -> Result<(), ScenarioError> {
                kind.check_int(path, *self as u64)
            }
        }
    )*};
}
int_value!(u32, u64, usize);

impl Value for f64 {
    const KIND: Kind = Kind::Finite;
    fn decode(v: &Json, path: &str, _: Kind) -> Result<Self, ScenarioError> {
        v.as_f64().ok_or_else(|| wrong_type(path, "a number"))
    }
    fn encode(&self) -> Json {
        Json::Num(*self)
    }
    fn check(&self, path: &str, kind: Kind) -> Result<(), ScenarioError> {
        match kind {
            _ if kind.admits(*self) => Ok(()),
            Kind::Probability => Err(invalid(format!(
                "{path} must be a probability in [0, 1], got {self}"
            ))),
            _ => Err(invalid(format!("{path} must be finite, got {self}"))),
        }
    }
}

impl Value for bool {
    const KIND: Kind = Kind::Bool;
    fn decode(v: &Json, path: &str, _: Kind) -> Result<Self, ScenarioError> {
        v.as_bool().ok_or_else(|| wrong_type(path, "a boolean"))
    }
    fn encode(&self) -> Json {
        Json::Bool(*self)
    }
    fn check(&self, _: &str, _: Kind) -> Result<(), ScenarioError> {
        Ok(())
    }
}

impl Value for String {
    const KIND: Kind = Kind::Str(&[]);
    fn decode(v: &Json, path: &str, _: Kind) -> Result<Self, ScenarioError> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| wrong_type(path, "a string"))
    }
    fn encode(&self) -> Json {
        Json::Str(self.clone())
    }
    fn check(&self, path: &str, kind: Kind) -> Result<(), ScenarioError> {
        match kind {
            Kind::Str(values) if !values.is_empty() && !values.contains(&self.as_str()) => {
                Err(invalid(format!(
                    "{path} must be one of {}, got {self:?}",
                    values.join(" | ")
                )))
            }
            _ => Ok(()),
        }
    }
}

impl<T: Value> Value for Option<T> {
    const KIND: Kind = T::KIND;
    const LIST: bool = T::LIST;
    fn decode(v: &Json, path: &str, kind: Kind) -> Result<Self, ScenarioError> {
        match v {
            Json::Null => Ok(None),
            v => T::decode(v, path, kind).map(Some),
        }
    }
    fn encode(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::encode)
    }
    fn check(&self, path: &str, kind: Kind) -> Result<(), ScenarioError> {
        self.as_ref().map_or(Ok(()), |v| v.check(path, kind))
    }
}

impl<T: Value> Value for Vec<T> {
    const KIND: Kind = T::KIND;
    const LIST: bool = true;
    fn decode(v: &Json, path: &str, kind: Kind) -> Result<Self, ScenarioError> {
        v.as_array()
            .ok_or_else(|| wrong_type(path, "an array"))?
            .iter()
            .enumerate()
            .map(|(i, item)| T::decode(item, &format!("{path}[{i}]"), kind))
            .collect()
    }
    fn encode(&self) -> Json {
        Json::Arr(self.iter().map(T::encode).collect())
    }
    fn check(&self, path: &str, kind: Kind) -> Result<(), ScenarioError> {
        self.iter()
            .enumerate()
            .try_for_each(|(i, item)| item.check(&format!("{path}[{i}]"), kind))
    }
}

/// Rejects `v`, the value at `path`, unless it is an object whose
/// members all are `fields`.
pub(crate) fn known_members(v: &Json, path: &str, fields: &[Field]) -> Result<(), ScenarioError> {
    let members = v.as_object().ok_or_else(|| wrong_type(path, "an object"))?;
    match members
        .iter()
        .find(|(key, _)| !fields.iter().any(|f| f.key == key))
    {
        Some((key, _)) => Err(ScenarioError::Parse(format!(
            "{}: unknown field {key:?} (allowed: {})",
            ctx(path),
            fields.iter().map(|f| f.key).collect::<Vec<_>>().join(", ")
        ))),
        None => Ok(()),
    }
}

/// Member `key` of kind `kind` of the object `v` at `path`; an absent
/// or `null` member takes `default`, and is an error when there is none.
pub(crate) fn field<T: Value>(
    v: &Json,
    path: &str,
    key: &str,
    kind: Kind,
    default: Option<fn() -> T>,
) -> Result<T, ScenarioError> {
    match (v.get(key).filter(|m| !m.is_null()), default) {
        (Some(m), _) => T::decode(m, &join(path, key), kind),
        (None, Some(default)) => Ok(default()),
        (None, None) => Err(ScenarioError::Parse(format!(
            "{}: missing field {key:?}",
            ctx(path)
        ))),
    }
}

/// Declares the scenario's block structs from one table. Each field
/// reads `name: Type [kind] = default => "doc" omit;`, where `[kind]`
/// (else the type's own [`Kind`]), `= default` (else the field is
/// required) and `omit` (leave an absent value out of the encoding
/// instead of writing `null`) are optional.
macro_rules! schema {
    (@kind $ty:ty) => { <$ty as $crate::schema::Value>::KIND };
    (@kind $ty:ty, $kind:expr) => { $kind };
    (@json $ty:ty) => { None };
    (@json $ty:ty, $default:expr) => {
        Some(|| <$ty as $crate::schema::Value>::encode(&$default))
    };
    (@default) => { None };
    (@default $default:expr) => { Some(|| $default) };
    (@omit) => { false };
    (@omit omit) => { true };
    ($(
        $(#[$meta:meta])*
        pub struct $name:ident {
            $(
                $field:ident: $ty:ty $([$kind:expr])? $(= $default:expr)?
                    => $doc:literal $($omit:ident)?;
            )*
        }
    )*) => {$(
        $(#[$meta])*
        pub struct $name {
            $(#[doc = $doc] pub $field: $ty,)*
        }

        impl $name {
            /// The table's rows for this block, in encoding order.
            pub const FIELDS: &'static [$crate::schema::Field] = &[$($crate::schema::Field {
                key: stringify!($field),
                kind: schema!(@kind $ty $(, $kind)?),
                list: <$ty as $crate::schema::Value>::LIST,
                default: schema!(@json $ty $(, $default)?),
                omit: schema!(@omit $($omit)?),
                doc: $doc,
            }),*];
        }

        impl $crate::schema::Value for $name {
            const KIND: $crate::schema::Kind = $crate::schema::Kind::Obj(Self::FIELDS);
            fn decode(
                v: &Json,
                path: &str,
                _: $crate::schema::Kind,
            ) -> Result<Self, ScenarioError> {
                $crate::schema::known_members(v, path, Self::FIELDS)?;
                Ok($name {
                    $($field: $crate::schema::field::<$ty>(
                        v,
                        path,
                        stringify!($field),
                        schema!(@kind $ty $(, $kind)?),
                        schema!(@default $($default)?),
                    )?,)*
                })
            }
            fn encode(&self) -> Json {
                let mut members = Vec::new();
                $(let value = $crate::schema::Value::encode(&self.$field);
                if !(schema!(@omit $($omit)?) && value.is_null()) {
                    members.push((stringify!($field).to_string(), value));
                })*
                Json::Obj(members)
            }
            fn check(&self, path: &str, _: $crate::schema::Kind) -> Result<(), ScenarioError> {
                $($crate::schema::Value::check(
                    &self.$field,
                    &$crate::schema::join(path, stringify!($field)),
                    schema!(@kind $ty $(, $kind)?),
                )?;)*
                Ok(())
            }
        }
    )*};
}

/// The README's field reference: one Markdown table row per field of
/// `fields` and, depth first, of every block under them.
pub fn reference(fields: &[Field]) -> String {
    let mut out = String::from("| Field | Value | Default | Meaning |\n|---|---|---|---|\n");
    rows(fields, "", &mut out);
    out
}

fn rows(fields: &[Field], prefix: &str, out: &mut String) {
    for f in fields {
        let path = format!("{prefix}{}{}", f.key, if f.list { "[]" } else { "" });
        let default = match f.default {
            None => "required".to_string(),
            Some(_) if f.omit => "none".to_string(),
            Some(json) => format!("`{}`", json().to_compact()),
        };
        out.push_str(&format!(
            "| `{path}` | {} | {default} | {} |\n",
            f.kind.describe(),
            f.doc
        ));
        if let Kind::Obj(children) = f.kind {
            rows(children, &format!("{path}."), out);
        }
    }
}
