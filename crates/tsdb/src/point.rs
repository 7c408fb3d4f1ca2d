//! Data points: the string-tagged view of a record, as one line of a
//! JSON-lines dump holds it. Nothing is stored in this form; see
//! [`CompactRecord::to_point`](crate::record::CompactRecord::to_point)
//! and [`from_point`](crate::record::CompactRecord::from_point).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use serde_json::{member, object, Error as JsonError, FromJson, ToJson, Value};

/// A field value. A record's fields are unsigned integers; the enum is
/// the dump's layout (`{"UInt":60}`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FieldValue {
    /// Unsigned integer.
    UInt(u64),
}

impl FieldValue {
    /// The value as `u64`.
    pub fn as_u64(&self) -> u64 {
        let FieldValue::UInt(v) = self;
        *v
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::UInt(v)
    }
}

/// One record's interchange view: a measurement name, tags, fields, and
/// a timestamp.
///
/// Mirrors the InfluxDB data model the paper adopts ("We adopt InfluxDB
/// for the offline storage and create tables for each tracepoint").
///
/// # Examples
///
/// ```
/// use vnet_tsdb::point::DataPoint;
///
/// let p = DataPoint::new("flannel1_rx", 1_000)
///     .tag("trace_id", "0xdeadbeef")
///     .field("pkt_len", 60u64);
/// assert_eq!(p.tag_value("trace_id"), Some("0xdeadbeef"));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataPoint {
    /// Measurement (table) name — vNetTracer uses one per tracepoint.
    pub measurement: String,
    /// Indexed key/value tags (trace id, node, device, flow, …).
    pub tags: BTreeMap<String, String>,
    /// Value fields.
    pub fields: BTreeMap<String, FieldValue>,
    /// Timestamp in nanoseconds (node-local monotonic or aligned time).
    pub timestamp_ns: u64,
}

impl DataPoint {
    /// Creates a point for `measurement` at `timestamp_ns`.
    pub fn new(measurement: impl Into<String>, timestamp_ns: u64) -> Self {
        DataPoint {
            measurement: measurement.into(),
            tags: BTreeMap::new(),
            fields: BTreeMap::new(),
            timestamp_ns,
        }
    }

    /// Adds a tag.
    pub fn tag(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.tags.insert(key.into(), value.into());
        self
    }

    /// Adds a field.
    pub fn field(mut self, key: impl Into<String>, value: impl Into<FieldValue>) -> Self {
        self.fields.insert(key.into(), value.into());
        self
    }

    /// A tag's value.
    pub fn tag_value(&self, key: &str) -> Option<&str> {
        self.tags.get(key).map(String::as_str)
    }

    /// A field's value.
    pub fn field_value(&self, key: &str) -> Option<&FieldValue> {
        self.fields.get(key)
    }
}

// Persistence encodes points as JSON lines; the encoding is written by
// hand (the vendored serde derives are inert). Field values use the
// externally-tagged enum layout (`{"UInt":9}`) the real serde derive
// would produce, so existing persisted files keep parsing.
impl ToJson for FieldValue {
    fn to_json(&self) -> Value {
        let FieldValue::UInt(v) = self;
        object([("UInt", v.to_json())])
    }
}

impl FromJson for FieldValue {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let obj = value
            .as_object()
            .ok_or_else(|| JsonError::msg("expected field value object"))?;
        let (variant, inner) = obj
            .iter()
            .next()
            .ok_or_else(|| JsonError::msg("empty field value object"))?;
        match variant.as_str() {
            "UInt" => u64::from_json(inner).map(FieldValue::UInt),
            other => Err(JsonError::msg(format!("unknown field variant '{other}'"))),
        }
    }
}

impl ToJson for DataPoint {
    fn to_json(&self) -> Value {
        object([
            ("measurement", self.measurement.to_json()),
            ("tags", self.tags.to_json()),
            ("fields", self.fields.to_json()),
            ("timestamp_ns", self.timestamp_ns.to_json()),
        ])
    }
}

impl FromJson for DataPoint {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        Ok(DataPoint {
            measurement: member(value, "measurement")?,
            tags: member(value, "tags")?,
            fields: member(value, "fields")?,
            timestamp_ns: member(value, "timestamp_ns")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_accessors() {
        let p = DataPoint::new("m", 7)
            .tag("node", "server1")
            .field("latency_ns", 1234u64);
        assert_eq!(p.measurement, "m");
        assert_eq!(p.timestamp_ns, 7);
        assert_eq!(p.tag_value("node"), Some("server1"));
        assert_eq!(p.tag_value("absent"), None);
        assert_eq!(p.field_value("latency_ns").unwrap().as_u64(), 1234);
        assert_eq!(p.field_value("absent"), None);
    }

    #[test]
    fn only_unsigned_fields_parse() {
        let line = |field: &str| {
            format!(
                r#"{{"measurement":"m","tags":{{}},"fields":{{"f":{field}}},"timestamp_ns":1}}"#
            )
        };
        let p: DataPoint = serde_json::from_str(&line(r#"{"UInt":9}"#)).unwrap();
        assert_eq!(p, DataPoint::new("m", 1).field("f", 9u64));
        for other in [
            r#"{"Int":-3}"#,
            r#"{"Float":2.5}"#,
            r#"{"Str":"x"}"#,
            "9",
            "{}",
        ] {
            assert!(
                serde_json::from_str::<DataPoint>(&line(other)).is_err(),
                "{other}"
            );
        }
    }

    #[test]
    fn serde_round_trip() {
        let p = DataPoint::new("m", 1).tag("a", "b").field("f", 9u64);
        let json = serde_json::to_string(&p).unwrap();
        let back: DataPoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
