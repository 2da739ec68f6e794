//! The WebFountain entity model.
//!
//! "The WebFountain data store component manages entities that are
//! represented in XML. An entity is a referenceable unit of information
//! such as a Web page." Entities carry raw text, source metadata, and the
//! annotations miners attach (token spans, subject spots, sentiments,
//! conceptual tokens). We serialize with serde (JSON) and provide an XML
//! writer for fidelity with the paper's representation.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use wf_types::{DocId, Span};

/// Where an entity came from: WebFountain ingests many source types, each
/// with "its own unique delivery method and format".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SourceKind {
    /// Crawled web page.
    Web,
    /// Traditional news feed.
    News,
    /// Bulletin board / forum post.
    BulletinBoard,
    /// NNTP (usenet).
    Nntp,
    /// Structured or unstructured customer data.
    CustomerData,
}

impl SourceKind {
    pub fn as_str(self) -> &'static str {
        match self {
            SourceKind::Web => "web",
            SourceKind::News => "news",
            SourceKind::BulletinBoard => "bboard",
            SourceKind::Nntp => "nntp",
            SourceKind::CustomerData => "customer",
        }
    }
}

/// An annotation's attributes: `(key, value)` pairs sorted by key, keys
/// unique. Annotations carry two or three attributes, and one exists per
/// sentiment posting, so a sorted vector is kept in place of a
/// `BTreeMap`, whose first insert allocates a whole 11-slot node. It
/// serializes as the same JSON object a `BTreeMap` would.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Attrs(Vec<(String, String)>);

impl Attrs {
    /// Sets `key` to `value`, returning the value it overwrote.
    pub fn insert(&mut self, key: String, value: String) -> Option<String> {
        match self.0.binary_search_by(|(k, _)| k.as_str().cmp(&key)) {
            Ok(i) => Some(std::mem::replace(&mut self.0[i].1, value)),
            Err(i) => {
                self.0.insert(i, (key, value));
                None
            }
        }
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.0
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| self.0[i].1.as_str())
    }

    /// The attributes in key order.
    pub fn iter(&self) -> AttrsIter<'_> {
        AttrsIter(self.0.iter())
    }
}

/// Iterator over [`Attrs`] in key order.
pub struct AttrsIter<'a>(std::slice::Iter<'a, (String, String)>);

impl<'a> Iterator for AttrsIter<'a> {
    type Item = (&'a str, &'a str);

    fn next(&mut self) -> Option<(&'a str, &'a str)> {
        self.0.next().map(|(k, v)| (k.as_str(), v.as_str()))
    }
}

impl<'a> IntoIterator for &'a Attrs {
    type Item = (&'a str, &'a str);
    type IntoIter = AttrsIter<'a>;

    fn into_iter(self) -> AttrsIter<'a> {
        self.iter()
    }
}

impl Serialize for Attrs {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), serde::Value::String(v.clone())))
                .collect(),
        )
    }
}

impl Deserialize for Attrs {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        // an object's keys come out sorted and unique
        BTreeMap::<String, String>::from_value(v).map(|map| Attrs(map.into_iter().collect()))
    }
}

/// A typed, span-anchored annotation attached by a miner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Annotation {
    /// Annotation type ("token", "spot", "sentiment", "named-entity", ...).
    pub kind: String,
    /// The text region the annotation covers.
    pub span: Span,
    /// Free-form attributes (synset id, polarity, miner name, ...).
    pub attrs: Attrs,
}

impl Annotation {
    pub fn new(kind: impl Into<String>, span: Span) -> Self {
        Annotation {
            kind: kind.into(),
            span,
            attrs: Attrs::default(),
        }
    }

    /// Builder-style attribute setter.
    pub fn with_attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.attrs.insert(key.into(), value.into());
        self
    }

    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.get(key)
    }
}

/// A stored entity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Entity {
    /// Store-assigned identifier.
    pub id: DocId,
    /// Source locator (URL, feed id, ...).
    pub uri: String,
    /// Source type.
    pub source: SourceKind,
    /// Raw document text.
    pub text: String,
    /// Document-level metadata (domain, language, crawl date, ...).
    pub metadata: BTreeMap<String, String>,
    /// Miner-attached annotations, in attachment order.
    pub annotations: Vec<Annotation>,
    /// Version counter, bumped on every mutation through the store.
    pub version: u64,
}

impl Entity {
    /// Creates an unstored entity (the store assigns the real id at
    /// ingest; this uses a placeholder).
    pub fn new(uri: impl Into<String>, source: SourceKind, text: impl Into<String>) -> Self {
        Entity {
            id: DocId(u64::MAX),
            uri: uri.into(),
            source,
            text: text.into(),
            metadata: BTreeMap::new(),
            annotations: Vec::new(),
            version: 0,
        }
    }

    /// Builder-style metadata setter.
    pub fn with_metadata(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.metadata.insert(key.into(), value.into());
        self
    }

    /// All annotations of a given kind.
    pub fn annotations_of<'a>(
        &'a self,
        kind: &'a str,
    ) -> impl Iterator<Item = &'a Annotation> + 'a {
        self.annotations.iter().filter(move |a| a.kind == kind)
    }

    /// Serializes the entity as the XML representation the paper's data
    /// store uses.
    pub fn to_xml(&self) -> String {
        let mut out = String::with_capacity(self.text.len() + 256);
        out.push_str(&format!(
            "<entity id=\"{}\" source=\"{}\" version=\"{}\">\n",
            self.id.as_u64(),
            self.source.as_str(),
            self.version
        ));
        out.push_str(&format!("  <uri>{}</uri>\n", xml_escape(&self.uri)));
        for (k, v) in &self.metadata {
            out.push_str(&format!(
                "  <meta name=\"{}\">{}</meta>\n",
                xml_escape(k),
                xml_escape(v)
            ));
        }
        out.push_str(&format!("  <text>{}</text>\n", xml_escape(&self.text)));
        for a in &self.annotations {
            out.push_str(&format!(
                "  <annotation kind=\"{}\" start=\"{}\" end=\"{}\"",
                xml_escape(&a.kind),
                a.span.start,
                a.span.end
            ));
            for (k, v) in &a.attrs {
                out.push_str(&format!(" {}=\"{}\"", xml_escape(k), xml_escape(v)));
            }
            out.push_str("/>\n");
        }
        out.push_str("</entity>\n");
        out
    }
}

/// What a miner, or any [`DataStore::update`](crate::DataStore::update),
/// sees of a stored entity. The document itself (id, source, uri and
/// text) is lent read-only: an entity is immutable after ingest, except
/// for its annotations and metadata, which the view owns and may change.
#[derive(Debug)]
pub struct EntityEdit<'a> {
    pub id: DocId,
    pub source: SourceKind,
    pub uri: &'a str,
    pub text: &'a str,
    pub metadata: BTreeMap<String, String>,
    pub annotations: Vec<Annotation>,
}

impl<'a> EntityEdit<'a> {
    /// A view of `entity` holding copies of its annotations and metadata.
    pub fn of(entity: &'a Entity) -> Self {
        EntityEdit {
            id: entity.id,
            source: entity.source,
            uri: &entity.uri,
            text: &entity.text,
            metadata: entity.metadata.clone(),
            annotations: entity.annotations.clone(),
        }
    }

    /// Adds an annotation.
    pub fn annotate(&mut self, annotation: Annotation) {
        self.annotations.push(annotation);
    }

    /// Removes all annotations of a kind (used when a miner re-runs).
    pub fn clear_annotations(&mut self, kind: &str) {
        self.annotations.retain(|a| a.kind != kind);
    }
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Entity {
        let mut e = Entity::new(
            "http://example.com/review1",
            SourceKind::Web,
            "Great camera.",
        )
        .with_metadata("domain", "digital-camera");
        e.annotations.push(
            Annotation::new("spot", Span::new(6, 12))
                .with_attr("synset", "0")
                .with_attr("variant", "camera"),
        );
        e
    }

    #[test]
    fn annotations_by_kind() {
        let mut e = sample();
        e.annotations
            .push(Annotation::new("sentiment", Span::new(0, 13)).with_attr("polarity", "+"));
        assert_eq!(e.annotations_of("spot").count(), 1);
        assert_eq!(e.annotations_of("sentiment").count(), 1);
        assert_eq!(e.annotations_of("token").count(), 0);
    }

    #[test]
    fn clear_annotations_removes_only_kind() {
        let e = sample();
        let mut edit = EntityEdit::of(&e);
        edit.annotate(Annotation::new("sentiment", Span::new(0, 13)));
        edit.clear_annotations("spot");
        let kinds: Vec<&str> = edit.annotations.iter().map(|a| a.kind.as_str()).collect();
        assert_eq!(kinds, ["sentiment"]);
        assert_eq!((edit.text, edit.uri), (e.text.as_str(), e.uri.as_str()));
        assert_eq!(edit.metadata, e.metadata);
    }

    #[test]
    fn xml_round_trip_shape() {
        let xml = sample().to_xml();
        assert!(xml.starts_with("<entity "));
        assert!(xml.contains("<meta name=\"domain\">digital-camera</meta>"));
        assert!(xml.contains("annotation kind=\"spot\""));
        assert!(xml.ends_with("</entity>\n"));
    }

    #[test]
    fn xml_escapes_special_characters() {
        let e = Entity::new("http://a?q=<&>", SourceKind::News, "1 < 2 & \"three\"");
        let xml = e.to_xml();
        assert!(xml.contains("&lt;&amp;&gt;"));
        assert!(xml.contains("1 &lt; 2 &amp; &quot;three&quot;"));
    }

    #[test]
    fn serde_json_round_trip() {
        let e = sample();
        let json = serde_json::to_string(&e).unwrap();
        let back: Entity = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }

    proptest::proptest! {
        /// `Attrs` built by inserts in any order, overwrites included,
        /// render the JSON and XML a `BTreeMap` of the same inserts
        /// renders, and come back unchanged from JSON.
        #[test]
        fn attrs_render_like_a_btreemap(
            inserts in proptest::prop::collection::vec(("[a-d]{1,2}", "[a-z<&\" ]{0,5}"), 0..10),
        ) {
            let mut annotation = Annotation::new("spot", Span::new(0, 5));
            let mut map = BTreeMap::new();
            for (key, value) in &inserts {
                annotation.attrs.insert(key.clone(), value.clone());
                map.insert(key.clone(), value.clone());
            }
            let pairs: Vec<(&str, &str)> = annotation.attrs.iter().collect();
            let expected: Vec<(&str, &str)> =
                map.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            proptest::prop_assert_eq!(pairs, expected);
            for key in map.keys() {
                proptest::prop_assert_eq!(annotation.attr(key), map.get(key).map(String::as_str));
            }

            let json = serde_json::to_string(&annotation.attrs).unwrap();
            proptest::prop_assert_eq!(&json, &serde_json::to_string(&map).unwrap());
            let back: Attrs = serde_json::from_str(&json).unwrap();
            proptest::prop_assert_eq!(&back, &annotation.attrs);

            let mut entity = Entity::new("u", SourceKind::Web, "Great");
            entity.annotations.push(annotation);
            let mut line = String::from("  <annotation kind=\"spot\" start=\"0\" end=\"5\"");
            for (k, v) in &map {
                line.push_str(&format!(" {}=\"{}\"", xml_escape(k), xml_escape(v)));
            }
            line.push_str("/>\n");
            let xml = entity.to_xml();
            proptest::prop_assert!(xml.contains(&line), "{} lacks {}", xml, line);
            let back: Entity = serde_json::from_str(&serde_json::to_string(&entity).unwrap()).unwrap();
            proptest::prop_assert_eq!(back, entity);
        }
    }

    #[test]
    fn attr_lookup() {
        let e = sample();
        let spot = e.annotations_of("spot").next().unwrap();
        assert_eq!(spot.attr("synset"), Some("0"));
        assert_eq!(spot.attr("missing"), None);
    }
}
