//! Small helpers over the vendored `serde::Value` tree, which is what
//! `BENCHMARK.json` and the result files are built from and read as.

use serde::Value;

pub fn text(text: &str) -> Value {
    Value::String(text.to_string())
}

pub fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    Value::get_field(v.as_object()?, key)
}

pub fn text_of(v: &Value) -> Option<&str> {
    match v {
        Value::String(s) => Some(s),
        _ => None,
    }
}
