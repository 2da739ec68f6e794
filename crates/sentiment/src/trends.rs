//! Market-trend tracking over mined sentiment.
//!
//! The reputation management application built on WebFountain supports
//! "tracking of market trends": per-period aggregation of a subject's
//! sentiment and detection of improving/declining reputation. This module
//! is a corpus-level consumer of the `sentiment` annotations the entity
//! miners attach.

use crate::aspects::AspectTally;
use std::collections::BTreeMap;
use wf_platform::DataStore;
use wf_types::Polarity;

/// One period's tally for a subject.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrendPoint {
    /// Period label, taken from entity metadata (sorted lexicographically;
    /// use sortable labels like "2004-03").
    pub period: String,
    pub tally: AspectTally,
}

/// Direction of a reputation trend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrendDirection {
    Improving,
    Declining,
    Flat,
}

/// A subject's per-period sentiment series.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendSeries {
    pub subject: String,
    /// Points in period order.
    pub points: Vec<TrendPoint>,
}

impl TrendSeries {
    /// Least-squares slope of the per-period *satisfaction rate*
    /// (positive / sentiment-bearing mentions) against the period index.
    /// Periods without sentiment mentions are skipped.
    pub fn slope(&self) -> f64 {
        let ys: Vec<(f64, f64)> = self
            .points
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.tally.satisfaction().map(|s| (i as f64, s)))
            .collect();
        let n = ys.len() as f64;
        if ys.len() < 2 {
            return 0.0;
        }
        let sum_x: f64 = ys.iter().map(|(x, _)| x).sum();
        let sum_y: f64 = ys.iter().map(|(_, y)| y).sum();
        let sum_xy: f64 = ys.iter().map(|(x, y)| x * y).sum();
        let sum_xx: f64 = ys.iter().map(|(x, _)| x * x).sum();
        let denom = n * sum_xx - sum_x * sum_x;
        if denom.abs() < f64::EPSILON {
            0.0
        } else {
            (n * sum_xy - sum_x * sum_y) / denom
        }
    }

    /// Classifies the trend; `threshold` is the minimum absolute slope in
    /// satisfaction-rate per period (e.g. 0.02 = two points per period).
    pub fn direction(&self, threshold: f64) -> TrendDirection {
        let slope = self.slope();
        if slope > threshold {
            TrendDirection::Improving
        } else if slope < -threshold {
            TrendDirection::Declining
        } else {
            TrendDirection::Flat
        }
    }

    /// Total mentions across all periods.
    pub fn total_mentions(&self) -> usize {
        self.points
            .iter()
            .map(|p| p.tally.positive + p.tally.negative + p.tally.neutral)
            .sum()
    }
}

/// Aggregates `sentiment` annotations across the store into per-subject
/// trend series, bucketed by the entity metadata field `period_key`.
/// Entities without the metadata field are skipped.
pub fn sentiment_trends(store: &DataStore, period_key: &str) -> Vec<TrendSeries> {
    let mut buckets: BTreeMap<String, BTreeMap<String, AspectTally>> = BTreeMap::new();
    let mut periods: Vec<String> = Vec::new();
    store.for_each(|entity| {
        let Some(period) = entity.metadata.get(period_key) else {
            return;
        };
        if !periods.iter().any(|p| p == period) {
            periods.push(period.clone());
        }
        for ann in entity.annotations_of("sentiment") {
            let Some(subject) = ann.attr("subject") else {
                continue;
            };
            let polarity = ann
                .attr("polarity")
                .and_then(Polarity::parse)
                .unwrap_or(Polarity::Neutral);
            let tally = buckets
                .entry(subject.to_string())
                .or_default()
                .entry(period.clone())
                .or_default();
            match polarity {
                Polarity::Positive => tally.positive += 1,
                Polarity::Negative => tally.negative += 1,
                Polarity::Neutral => tally.neutral += 1,
            }
        }
    });
    periods.sort();
    buckets
        .into_iter()
        .map(|(subject, by_period)| TrendSeries {
            subject,
            points: periods
                .iter()
                .map(|p| TrendPoint {
                    period: p.clone(),
                    tally: by_period.get(p).copied().unwrap_or_default(),
                })
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_platform::{Annotation, Entity, SourceKind};
    use wf_types::Span;

    fn entity(month: &str, subject: &str, polarity: &str) -> Entity {
        let mut e = Entity::new("u", SourceKind::Web, "text here").with_metadata("month", month);
        e.annotations.push(
            Annotation::new("sentiment", Span::new(0, 4))
                .with_attr("subject", subject)
                .with_attr("polarity", polarity),
        );
        e
    }

    fn store_with_drift() -> DataStore {
        let store = DataStore::single();
        // canon: improving month over month; nikon: flat
        let schedule = [("2004-01", 1, 4), ("2004-02", 3, 3), ("2004-03", 5, 1)];
        for (month, pos, neg) in schedule {
            for _ in 0..pos {
                store.insert(entity(month, "canon", "+"));
            }
            for _ in 0..neg {
                store.insert(entity(month, "canon", "-"));
            }
            store.insert(entity(month, "nikon", "+"));
            store.insert(entity(month, "nikon", "-"));
        }
        store
    }

    #[test]
    fn detects_improving_trend() {
        let trends = sentiment_trends(&store_with_drift(), "month");
        let canon = trends.iter().find(|t| t.subject == "canon").unwrap();
        assert_eq!(canon.points.len(), 3);
        assert!(canon.slope() > 0.2, "slope {}", canon.slope());
        assert_eq!(canon.direction(0.05), TrendDirection::Improving);
    }

    #[test]
    fn flat_series_is_flat() {
        let trends = sentiment_trends(&store_with_drift(), "month");
        let nikon = trends.iter().find(|t| t.subject == "nikon").unwrap();
        assert_eq!(nikon.direction(0.05), TrendDirection::Flat);
    }

    #[test]
    fn declining_mirror() {
        let store = DataStore::single();
        for (month, pos, neg) in [("a", 4, 0), ("b", 2, 2), ("c", 0, 4)] {
            for _ in 0..pos {
                store.insert(entity(month, "x", "+"));
            }
            for _ in 0..neg {
                store.insert(entity(month, "x", "-"));
            }
        }
        let trends = sentiment_trends(&store, "month");
        assert_eq!(trends[0].direction(0.05), TrendDirection::Declining);
    }

    #[test]
    fn entities_without_period_are_skipped() {
        let store = DataStore::single();
        let mut e = Entity::new("u", SourceKind::Web, "text");
        e.annotations.push(
            Annotation::new("sentiment", Span::new(0, 4))
                .with_attr("subject", "x")
                .with_attr("polarity", "+"),
        );
        store.insert(e);
        assert!(sentiment_trends(&store, "month").is_empty());
    }

    #[test]
    fn single_period_has_zero_slope() {
        let store = DataStore::single();
        store.insert(entity("only", "x", "+"));
        let trends = sentiment_trends(&store, "month");
        assert_eq!(trends[0].slope(), 0.0);
        assert_eq!(trends[0].direction(0.05), TrendDirection::Flat);
        assert_eq!(trends[0].total_mentions(), 1);
    }

    #[test]
    fn periods_align_across_subjects() {
        let trends = sentiment_trends(&store_with_drift(), "month");
        for t in &trends {
            let labels: Vec<&str> = t.points.iter().map(|p| p.period.as_str()).collect();
            assert_eq!(labels, vec!["2004-01", "2004-02", "2004-03"]);
        }
    }
}
