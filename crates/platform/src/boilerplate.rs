//! Template (boilerplate) detection — the paper cites template detection
//! (Bar-Yossef & Rajagopalan, WWW 2002) among the miners WebFountain
//! runs before analytics, because navigation chrome and legal footers
//! repeated across a site would otherwise pollute text statistics and
//! sentiment counts.
//!
//! Approach: group entities by site (URI prefix), hash each sentence-like
//! segment, and flag segments that recur in at least `min_fraction` of
//! the site's pages (with an absolute floor) as template content. The
//! corpus miner annotates flagged spans with `template` annotations so
//! downstream miners can skip them.

use crate::entity::Annotation;
use crate::miner::CorpusMiner;
use crate::store::DataStore;
use std::collections::{HashMap, HashSet};
use wf_types::{Result, Span};

/// Configuration for template detection.
#[derive(Debug, Clone, Copy)]
pub struct TemplateConfig {
    /// Minimum fraction of a site's pages a segment must appear in.
    pub min_fraction: f64,
    /// Absolute minimum number of pages (guards tiny sites).
    pub min_pages: usize,
    /// Minimum segment length in bytes (short fragments are too common).
    pub min_segment_len: usize,
}

impl Default for TemplateConfig {
    fn default() -> Self {
        TemplateConfig {
            min_fraction: 0.5,
            min_pages: 3,
            min_segment_len: 12,
        }
    }
}

/// The site key of an entity: scheme + host part of the URI.
fn site_of(uri: &str) -> String {
    match uri.find("://") {
        Some(idx) => {
            let rest = &uri[idx + 3..];
            let host_end = rest.find('/').unwrap_or(rest.len());
            uri[..idx + 3 + host_end].to_string()
        }
        None => uri.split('/').next().unwrap_or(uri).to_string(),
    }
}

/// Splits text into sentence-like segments with byte spans (on `.`, `!`,
/// `?`, and newlines).
fn segments(text: &str) -> Vec<Span> {
    let mut out = Vec::new();
    let mut start = 0usize;
    for (i, c) in text.char_indices() {
        if matches!(c, '.' | '!' | '?' | '\n') {
            let end = i + c.len_utf8();
            if end > start {
                out.push(Span::new(start, end));
            }
            start = end;
        }
    }
    if start < text.len() {
        out.push(Span::new(start, text.len()));
    }
    out
}

fn segment_key(text: &str) -> u64 {
    let normalized: String = text
        .chars()
        .filter(|c| c.is_alphanumeric())
        .flat_map(|c| c.to_lowercase())
        .collect();
    let mut hash = 0xcbf29ce484222325u64;
    for b in normalized.bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// The template detector corpus miner.
#[derive(Default)]
pub struct TemplateDetector {
    config: TemplateConfig,
}

impl TemplateDetector {
    pub fn new(config: TemplateConfig) -> Self {
        TemplateDetector { config }
    }

    /// Returns, per site, the set of segment keys considered template.
    fn template_keys(&self, store: &DataStore) -> HashMap<String, HashSet<u64>> {
        // site → segment key → page count (each page counts once per key)
        let mut site_pages: HashMap<String, usize> = HashMap::new();
        let mut key_pages: HashMap<String, HashMap<u64, usize>> = HashMap::new();
        store.for_each(|entity| {
            let site = site_of(&entity.uri);
            *site_pages.entry(site.clone()).or_insert(0) += 1;
            let counts = key_pages.entry(site).or_default();
            let mut seen = HashSet::new();
            for span in segments(&entity.text) {
                if span.len() < self.config.min_segment_len {
                    continue;
                }
                let key = segment_key(span.slice(&entity.text));
                if seen.insert(key) {
                    *counts.entry(key).or_insert(0) += 1;
                }
            }
        });
        key_pages
            .into_iter()
            .map(|(site, counts)| {
                let pages = site_pages[&site];
                let threshold = ((pages as f64 * self.config.min_fraction).ceil() as usize)
                    .max(self.config.min_pages);
                let keys = counts
                    .into_iter()
                    .filter(|&(_, c)| c >= threshold)
                    .map(|(k, _)| k)
                    .collect();
                (site, keys)
            })
            .collect()
    }
}

impl CorpusMiner for TemplateDetector {
    fn name(&self) -> &str {
        "template-detector"
    }

    fn run(&self, store: &DataStore) -> Result<()> {
        let templates = self.template_keys(store);
        for id in store.ids() {
            store.update(id, |entity| {
                entity.clear_annotations("template");
                let site = site_of(entity.uri);
                let Some(keys) = templates.get(&site) else {
                    return;
                };
                let text = entity.text;
                for span in segments(text) {
                    if span.len() < self.config.min_segment_len {
                        continue;
                    }
                    if keys.contains(&segment_key(span.slice(text))) {
                        entity.annotate(Annotation::new("template", span));
                    }
                }
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::{Entity, SourceKind};
    use wf_types::DocId;

    const FOOTER: &str = "Copyright Example Corp, all rights reserved.";

    fn seeded() -> DataStore {
        let store = DataStore::single();
        for i in 0..5 {
            store.insert(Entity::new(
                format!("http://site-a.example/page{i}"),
                SourceKind::Web,
                format!("Unique review text number {i} about the camera. {FOOTER}"),
            ));
        }
        // a different site with its own content, no shared footer
        for i in 0..3 {
            store.insert(Entity::new(
                format!("http://site-b.example/p{i}"),
                SourceKind::Web,
                format!("Completely different article body {i} here."),
            ));
        }
        store
    }

    #[test]
    fn shared_footer_is_flagged() {
        let store = seeded();
        TemplateDetector::default().run(&store).unwrap();
        for i in 0..5 {
            let e = store.get(DocId(i)).unwrap();
            let template_texts: Vec<String> = e
                .annotations_of("template")
                .map(|a| a.span.slice(&e.text).trim().to_string())
                .collect();
            assert!(
                template_texts.iter().any(|t| t.contains("Copyright")),
                "page {i}: {template_texts:?}"
            );
            // the unique body is not flagged
            assert!(
                !template_texts.iter().any(|t| t.contains("Unique review")),
                "page {i}: {template_texts:?}"
            );
        }
    }

    #[test]
    fn unique_content_sites_have_no_templates() {
        let store = seeded();
        TemplateDetector::default().run(&store).unwrap();
        for i in 5..8 {
            let e = store.get(DocId(i)).unwrap();
            assert_eq!(e.annotations_of("template").count(), 0, "page {i}");
        }
    }

    #[test]
    fn small_sites_are_guarded_by_min_pages() {
        let store = DataStore::single();
        for i in 0..2 {
            store.insert(Entity::new(
                format!("http://tiny.example/{i}"),
                SourceKind::Web,
                format!("Body {i}. {FOOTER}"),
            ));
        }
        TemplateDetector::default().run(&store).unwrap();
        // 2 pages < min_pages floor of 3 → nothing flagged
        for i in 0..2 {
            let e = store.get(DocId(i)).unwrap();
            assert_eq!(e.annotations_of("template").count(), 0);
        }
    }

    #[test]
    fn rerun_is_idempotent() {
        let store = seeded();
        let detector = TemplateDetector::default();
        detector.run(&store).unwrap();
        let first = store
            .get(DocId(0))
            .unwrap()
            .annotations_of("template")
            .count();
        detector.run(&store).unwrap();
        let second = store
            .get(DocId(0))
            .unwrap()
            .annotations_of("template")
            .count();
        assert_eq!(first, second);
    }

    #[test]
    fn site_extraction() {
        assert_eq!(site_of("http://a.example/x/y"), "http://a.example");
        assert_eq!(site_of("https://b.example"), "https://b.example");
        assert_eq!(site_of("no-scheme/path"), "no-scheme");
    }

    #[test]
    fn segments_cover_text() {
        let text = "One. Two! Three";
        let spans = segments(text);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].slice(text), "One.");
        assert_eq!(spans[2].slice(text), " Three");
    }
}
