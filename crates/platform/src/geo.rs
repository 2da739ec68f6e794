//! Geographic context extraction — one of the four example miner tasks
//! the paper names ("Tokenization, geographic context extraction \[15\],
//! template detection \[3\], and page ranking \[27\]").
//!
//! A gazetteer-driven entity miner: place-name mentions are annotated
//! with `geo` annotations carrying the place's region, and the document's
//! dominant region lands in `geo-region` metadata (the coarse geographic
//! context McCurley-style applications need).

use crate::entity::{Annotation, EntityEdit};
use crate::miner::EntityMiner;
use std::collections::HashMap;
use wf_types::{Result, Span};

/// A gazetteer entry: place name → region label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Place {
    pub name: &'static str,
    pub region: &'static str,
}

/// A small embedded gazetteer (extensible via [`GeoMiner::with_places`]).
pub const DEFAULT_GAZETTEER: &[Place] = &[
    Place {
        name: "San Jose",
        region: "north-america",
    },
    Place {
        name: "New York",
        region: "north-america",
    },
    Place {
        name: "Houston",
        region: "north-america",
    },
    Place {
        name: "Almaden",
        region: "north-america",
    },
    Place {
        name: "California",
        region: "north-america",
    },
    Place {
        name: "Texas",
        region: "north-america",
    },
    Place {
        name: "London",
        region: "europe",
    },
    Place {
        name: "Paris",
        region: "europe",
    },
    Place {
        name: "Berlin",
        region: "europe",
    },
    Place {
        name: "Rotterdam",
        region: "europe",
    },
    Place {
        name: "North Sea",
        region: "europe",
    },
    Place {
        name: "Tokyo",
        region: "asia",
    },
    Place {
        name: "Osaka",
        region: "asia",
    },
    Place {
        name: "Singapore",
        region: "asia",
    },
    Place {
        name: "Lagos",
        region: "africa",
    },
    Place {
        name: "Gulf of Mexico",
        region: "north-america",
    },
];

/// The geographic context miner.
pub struct GeoMiner {
    places: Vec<Place>,
}

impl Default for GeoMiner {
    fn default() -> Self {
        GeoMiner {
            places: DEFAULT_GAZETTEER.to_vec(),
        }
    }
}

impl GeoMiner {
    /// Miner over a custom gazetteer.
    pub fn with_places(places: Vec<Place>) -> Self {
        GeoMiner { places }
    }

    /// Finds (span, region) gazetteer hits in `text` (ASCII
    /// case-insensitive, word-boundary respecting).
    fn spots(&self, text: &str) -> Vec<(Span, &'static str)> {
        let lowered = text.to_ascii_lowercase();
        let bytes = lowered.as_bytes();
        let mut out = Vec::new();
        for place in &self.places {
            let needle = place.name.to_ascii_lowercase();
            let mut from = 0;
            while let Some(pos) = lowered[from..].find(&needle) {
                let start = from + pos;
                let end = start + needle.len();
                let before_ok = start == 0 || !bytes[start - 1].is_ascii_alphanumeric();
                let after_ok = end >= bytes.len() || !bytes[end].is_ascii_alphanumeric();
                if before_ok && after_ok {
                    out.push((Span::new(start, end), place.region));
                }
                from = start + 1;
            }
        }
        out.sort_by_key(|(span, _)| (span.start, span.end));
        out
    }
}

impl EntityMiner for GeoMiner {
    fn name(&self) -> &str {
        "geo-context"
    }

    fn process(&self, entity: &mut EntityEdit<'_>) -> Result<()> {
        entity.clear_annotations("geo");
        let mut region_counts: HashMap<&'static str, usize> = HashMap::new();
        for (span, region) in self.spots(entity.text) {
            *region_counts.entry(region).or_insert(0) += 1;
            entity.annotate(Annotation::new("geo", span).with_attr("region", region));
        }
        entity.metadata.remove("geo-region");
        if let Some((&region, _)) = region_counts
            .iter()
            .max_by_key(|&(&region, &count)| (count, std::cmp::Reverse(region)))
        {
            entity
                .metadata
                .insert("geo-region".into(), region.to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::{Entity, SourceKind};
    use crate::store::DataStore;

    /// `text`, stored and then mined `runs` times through the store.
    fn mined_by(miner: &GeoMiner, text: &str, runs: usize) -> Entity {
        let store = DataStore::single();
        let id = store.insert(Entity::new("u", SourceKind::News, text));
        for _ in 0..runs {
            store.update(id, |e| miner.process(e).unwrap()).unwrap();
        }
        store.get(id).unwrap()
    }

    fn mined(text: &str) -> Entity {
        mined_by(&GeoMiner::default(), text, 1)
    }

    #[test]
    fn annotates_places_with_regions() {
        let e = mined("The spill reached the Gulf of Mexico near Houston yesterday.");
        let geo: Vec<(&str, String)> = e
            .annotations_of("geo")
            .map(|a| (a.attr("region").unwrap(), a.span.slice(&e.text).to_string()))
            .collect();
        assert!(
            geo.contains(&("north-america", "Gulf of Mexico".to_string())),
            "{geo:?}"
        );
        assert!(
            geo.contains(&("north-america", "Houston".to_string())),
            "{geo:?}"
        );
        assert_eq!(e.metadata.get("geo-region").unwrap(), "north-america");
    }

    #[test]
    fn dominant_region_wins() {
        let e = mined("From London to Paris and Berlin, with one stop in Tokyo.");
        assert_eq!(e.metadata.get("geo-region").unwrap(), "europe");
    }

    #[test]
    fn no_places_no_region() {
        let e = mined("Nothing geographic in this sentence at all.");
        assert_eq!(e.annotations_of("geo").count(), 0);
        assert!(!e.metadata.contains_key("geo-region"));
    }

    #[test]
    fn word_boundaries_respected() {
        // "Texas" must not match inside "Texasville"
        let e = mined("The Texasville festival was fun.");
        assert_eq!(e.annotations_of("geo").count(), 0);
    }

    #[test]
    fn rerun_is_idempotent() {
        let text = "London calling from London.";
        let miner = GeoMiner::default();
        let first = mined_by(&miner, text, 1).annotations_of("geo").count();
        let again = mined_by(&miner, text, 2).annotations_of("geo").count();
        assert_eq!(again, first);
        assert_eq!(first, 2);
    }

    #[test]
    fn custom_gazetteer() {
        let miner = GeoMiner::with_places(vec![Place {
            name: "Springfield",
            region: "north-america",
        }]);
        let e = mined_by(&miner, "Greetings from Springfield!", 1);
        assert_eq!(e.annotations_of("geo").count(), 1);
    }
}
