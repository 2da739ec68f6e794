//! Offline shim for `serde_derive`.
//!
//! Generates `serde::Serialize` / `serde::Deserialize` impls (for the
//! in-repo serde shim, whose traits are value-tree based) without `syn` /
//! `quote`, by walking the raw token stream. Supported shapes — the ones
//! this workspace uses:
//!
//! - structs with named fields            → JSON object
//! - tuple structs with exactly one field → the inner value (newtype)
//! - enums with only unit variants        → the variant name as a string
//!
//! Named fields take these `#[serde(...)]` attributes, under real
//! serde's names and meanings:
//!
//! - `rename = "key"`: the field's JSON key is `key`, not its name.
//! - `skip`: the field is never written, and reads as `Default`.
//! - `skip_serializing_if = "path"`: the field is left out when
//!   `path(&field)` is true; reading a missing key gives what `null`
//!   gives, so pair it with an `Option`.
//!
//! Anything else, an attribute on the item itself included, produces a
//! compile error naming what is unsupported.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Deserialize)
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Serialize,
    Deserialize,
}

/// One named field and what its `#[serde(...)]` attributes ask for.
struct Field {
    name: String,
    /// The JSON key: the name, or its `rename`.
    key: String,
    skip: bool,
    /// The `skip_serializing_if` predicate's path.
    skip_if: Option<String>,
}

enum Shape {
    /// Struct with named fields.
    Named(Vec<Field>),
    /// Tuple struct with exactly one field.
    Newtype,
    /// Enum whose variants are all unit variants.
    UnitEnum(Vec<String>),
}

fn expand(input: TokenStream, mode: Mode) -> TokenStream {
    match parse(input) {
        Ok((name, shape)) => render(&name, &shape, mode)
            .parse()
            .expect("serde_derive shim produced invalid Rust"),
        Err(msg) => format!("compile_error!({msg:?});").parse().unwrap(),
    }
}

/// Parses the item: skips attributes and visibility, identifies
/// struct/enum, extracts the name and field/variant list.
fn parse(input: TokenStream) -> Result<(String, Shape), String> {
    let mut iter = input.into_iter().peekable();
    // skip attributes (#[...]) and visibility
    loop {
        match iter.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                iter.next();
                if serde_attr(iter.next())?.is_some() {
                    return Err("serde shim derive supports no container attributes".into());
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                iter.next();
                // optional pub(crate) / pub(super)
                if let Some(TokenTree::Group(g)) = iter.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        iter.next();
                    }
                }
            }
            _ => break,
        }
    }
    let kind = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected struct/enum, got {other:?}")),
    };
    let name = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected type name, got {other:?}")),
    };
    if let Some(TokenTree::Punct(p)) = iter.peek() {
        if p.as_char() == '<' {
            return Err(format!(
                "serde shim derive does not support generic type {name}"
            ));
        }
    }
    let body = match iter.next() {
        Some(TokenTree::Group(g)) => g,
        other => return Err(format!("expected {{...}} or (...) body, got {other:?}")),
    };
    match (kind.as_str(), body.delimiter()) {
        ("struct", Delimiter::Brace) => Ok((name, Shape::Named(named_fields(body.stream())?))),
        ("struct", Delimiter::Parenthesis) => {
            let n = count_top_level_fields(body.stream());
            if n == 1 {
                Ok((name, Shape::Newtype))
            } else {
                Err(format!(
                    "serde shim derive supports only 1-field tuple structs; {name} has {n}"
                ))
            }
        }
        ("enum", Delimiter::Brace) => Ok((name, Shape::UnitEnum(unit_variants(body.stream())?))),
        _ => Err(format!("unsupported item shape for {name}")),
    }
}

/// The fields of a named-field struct body. Commas inside generic types
/// (e.g. `BTreeMap<String, String>`) are skipped by tracking `<`/`>` depth
/// (parens/brackets/braces arrive as single groups and need no tracking).
fn named_fields(body: TokenStream) -> Result<Vec<Field>, String> {
    let mut fields = Vec::new();
    let mut iter = body.into_iter().peekable();
    loop {
        let mut rename = None;
        let mut skip = false;
        let mut skip_if = None;
        // read attributes and skip visibility before the field name
        loop {
            match iter.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    iter.next();
                    for (key, value) in serde_attr(iter.next())?.unwrap_or_default() {
                        match (key.as_str(), value) {
                            ("rename", Some(v)) => rename = Some(v),
                            ("skip", None) => skip = true,
                            ("skip_serializing_if", Some(v)) => skip_if = Some(v),
                            (other, _) => {
                                return Err(format!(
                                    "serde shim derive does not support #[serde({other})]"
                                ))
                            }
                        }
                    }
                }
                Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                    iter.next();
                    if let Some(TokenTree::Group(g)) = iter.peek() {
                        if g.delimiter() == Delimiter::Parenthesis {
                            iter.next();
                        }
                    }
                }
                _ => break,
            }
        }
        let Some(tree) = iter.next() else { break };
        let TokenTree::Ident(field) = tree else {
            return Err(format!("expected field name, got {tree:?}"));
        };
        let name = field.to_string();
        fields.push(Field {
            key: rename.unwrap_or_else(|| name.clone()),
            name,
            skip,
            skip_if,
        });
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => return Err(format!("expected ':' after field, got {other:?}")),
        }
        // consume the type: everything until a comma at angle depth 0
        let mut angle_depth = 0i32;
        loop {
            match iter.peek() {
                None => break,
                Some(TokenTree::Punct(p)) => {
                    let c = p.as_char();
                    if c == '<' {
                        angle_depth += 1;
                    } else if c == '>' {
                        angle_depth -= 1;
                    } else if c == ',' && angle_depth == 0 {
                        iter.next();
                        break;
                    }
                    iter.next();
                }
                Some(_) => {
                    iter.next();
                }
            }
        }
    }
    Ok(fields)
}

/// Reads the `[...]` group after a `#`: `None` for an attribute other
/// than `serde`, else its comma-separated `key` / `key = "value"` items.
fn serde_attr(group: Option<TokenTree>) -> Result<Option<Vec<(String, Option<String>)>>, String> {
    let Some(TokenTree::Group(group)) = group else {
        return Err("expected [...] after #".into());
    };
    let mut iter = group.stream().into_iter();
    let (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args))) = (iter.next(), iter.next())
    else {
        return Ok(None);
    };
    if id.to_string() != "serde" {
        return Ok(None);
    }
    let items = args.stream().to_string();
    Ok(Some(
        items
            .split(',')
            .filter(|item| !item.trim().is_empty())
            .map(|item| match item.split_once('=') {
                Some((key, value)) => (
                    key.trim().to_string(),
                    Some(value.trim().trim_matches('"').to_string()),
                ),
                None => (item.trim().to_string(), None),
            })
            .collect(),
    ))
}

fn count_top_level_fields(body: TokenStream) -> usize {
    let mut fields = 0usize;
    let mut saw_tokens = false;
    let mut angle_depth = 0i32;
    for tree in body {
        match &tree {
            TokenTree::Punct(p) => {
                let c = p.as_char();
                if c == '<' {
                    angle_depth += 1;
                } else if c == '>' {
                    angle_depth -= 1;
                } else if c == ',' && angle_depth == 0 {
                    fields += 1;
                    saw_tokens = false;
                    continue;
                }
            }
            _ => {}
        }
        saw_tokens = true;
    }
    if saw_tokens {
        fields += 1;
    }
    fields
}

fn unit_variants(body: TokenStream) -> Result<Vec<String>, String> {
    let mut variants = Vec::new();
    let mut iter = body.into_iter().peekable();
    loop {
        // skip attributes before the variant
        while let Some(TokenTree::Punct(p)) = iter.peek() {
            if p.as_char() == '#' {
                iter.next();
                if serde_attr(iter.next())?.is_some() {
                    return Err("serde shim derive supports no variant attributes".into());
                }
            } else {
                break;
            }
        }
        let Some(tree) = iter.next() else { break };
        let TokenTree::Ident(variant) = tree else {
            return Err(format!("expected enum variant, got {tree:?}"));
        };
        variants.push(variant.to_string());
        match iter.next() {
            None => break,
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            Some(other) => {
                return Err(format!(
                    "serde shim derive supports only unit enum variants; found {other:?} after {}",
                    variants.last().unwrap()
                ))
            }
        }
    }
    Ok(variants)
}

fn render(name: &str, shape: &Shape, mode: Mode) -> String {
    match (mode, shape) {
        (Mode::Serialize, Shape::Named(fields)) => {
            let inserts: String = fields
                .iter()
                .filter(|f| !f.skip)
                .map(|Field { name, key, skip_if, .. }| {
                    let insert = format!(
                        "map.insert({key:?}.to_string(), ::serde::Serialize::to_value(&self.{name}));\n"
                    );
                    match skip_if {
                        Some(path) => format!("if !{path}(&self.{name}) {{ {insert} }}\n"),
                        None => insert,
                    }
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         let mut map = ::std::collections::BTreeMap::new();\n\
                         {inserts}\
                         ::serde::Value::Object(map)\n\
                     }}\n\
                 }}"
            )
        }
        (Mode::Deserialize, Shape::Named(fields)) => {
            let builds: String = fields
                .iter()
                .map(|Field { name: f, key, skip, .. }| {
                    if *skip {
                        return format!("{f}: ::std::default::Default::default(),\n");
                    }
                    format!(
                        "{f}: ::serde::Deserialize::from_value(\n\
                             obj.get({key:?}).unwrap_or(&::serde::Value::Null)\n\
                         ).map_err(|e| ::serde::Error::custom(\n\
                             format!(\"{name}.{key}: {{e}}\")))?,\n"
                    )
                })
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                         let obj = v.as_object().ok_or_else(|| \
                             ::serde::Error::custom(concat!(\"expected object for \", stringify!({name}))))?;\n\
                         ::std::result::Result::Ok({name} {{\n{builds}}})\n\
                     }}\n\
                 }}"
            )
        }
        (Mode::Serialize, Shape::Newtype) => format!(
            "impl ::serde::Serialize for {name} {{\n\
                 fn to_value(&self) -> ::serde::Value {{\n\
                     ::serde::Serialize::to_value(&self.0)\n\
                 }}\n\
             }}"
        ),
        (Mode::Deserialize, Shape::Newtype) => format!(
            "impl ::serde::Deserialize for {name} {{\n\
                 fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                     ::std::result::Result::Ok({name}(::serde::Deserialize::from_value(v)?))\n\
                 }}\n\
             }}"
        ),
        (Mode::Serialize, Shape::UnitEnum(variants)) => {
            let arms: String = variants
                .iter()
                .map(|v| format!("{name}::{v} => {:?},\n", v))
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         ::serde::Value::String(match self {{\n{arms}}}.to_string())\n\
                     }}\n\
                 }}"
            )
        }
        (Mode::Deserialize, Shape::UnitEnum(variants)) => {
            let arms: String = variants
                .iter()
                .map(|v| format!("{:?} => ::std::result::Result::Ok({name}::{v}),\n", v))
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                         let s = v.as_str().ok_or_else(|| \
                             ::serde::Error::custom(concat!(\"expected string for \", stringify!({name}))))?;\n\
                         match s {{\n{arms}\
                             other => ::std::result::Result::Err(::serde::Error::custom(\n\
                                 format!(\"unknown {name} variant {{other:?}}\"))),\n\
                         }}\n\
                     }}\n\
                 }}"
            )
        }
    }
}
