//! Commands over plain text: `analyze`, `entities`, `features` and
//! `gen-corpus`.

use super::*;

fn read_text(args: &ParsedArgs) -> Result<String, String> {
    match args.opt("file") {
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}")),
        None => {
            std::io::read_to_string(std::io::stdin()).map_err(|e| format!("cannot read stdin: {e}"))
        }
    }
}

pub(super) fn analyze(args: &ParsedArgs) -> Result<String, String> {
    let names = args.opt_list("subjects");
    if names.is_empty() {
        return Err("analyze needs --subjects A,B,...".into());
    }
    let text = read_text(args)?;
    let miner = SentimentMiner::with_default_resources();
    let records = miner.analyze_text(&text, &subject_list(&names));
    let mut out = String::new();
    for (subject, sentence_span, polarity) in mention_polarities(&records) {
        let sentence = sentence_span.slice(&text).trim().replace('\n', " ");
        out.push_str(&format!("[{polarity}] {subject}: {sentence}\n"));
    }
    if out.is_empty() {
        out.push_str("(no subject mentions found)\n");
    }
    Ok(out)
}

pub(super) fn entities(args: &ParsedArgs) -> Result<String, String> {
    let text = read_text(args)?;
    let miner = SentimentMiner::with_default_resources();
    let records = miner.analyze_named_entities(&text);
    let mut out = String::new();
    for (subject, _, polarity) in mention_polarities(&records) {
        out.push_str(&format!("[{polarity}] {subject}\n"));
    }
    if out.is_empty() {
        out.push_str("(no named entities found)\n");
    }
    Ok(out)
}

pub(super) fn features(args: &ParsedArgs) -> Result<String, String> {
    let [d_plus_path, d_minus_path] = args.positional.as_slice() else {
        return Err("features needs two positional arguments: <D_PLUS.txt> <D_MINUS.txt>".into());
    };
    let d_plus = read_doc_lines(d_plus_path)?;
    let d_minus = read_doc_lines(d_minus_path)?;
    let top: usize = args.parse_or("top", 20)?;
    let fx = FeatureExtractor::new();
    let selected = fx.select(&d_plus, &d_minus, Selection::Confidence(CHI2_95));
    let mut out = format!("{:<24} {:>10}\n", "feature term", "-2logλ");
    for f in selected.iter().take(top) {
        out.push_str(&format!("{:<24} {:>10.1}\n", f.term, f.score));
    }
    Ok(out)
}

pub(super) fn gen_corpus(args: &ParsedArgs) -> Result<String, String> {
    use wf_corpus::{
        camera_reviews, music_reviews, petroleum_web, pharma_web, ReviewConfig, WebConfig,
    };
    let domain = args.require("domain")?;
    let out = args.require("out")?.to_string();
    let seed: u64 = args.parse_or("seed", 20050405)?;
    let docs: usize = args.parse_or("docs", 50)?;
    // a review corpus's D+ half, or a web corpus, of `docs` documents
    let review = |base| ReviewConfig {
        n_plus: docs,
        n_minus: 0,
        ..base
    };
    let web = WebConfig {
        n_docs: docs,
        ..WebConfig::standard()
    };
    let texts: Vec<String> = match domain {
        "camera" => camera_reviews(seed, &review(ReviewConfig::camera())).d_plus_texts(),
        "music" => music_reviews(seed, &review(ReviewConfig::music())).d_plus_texts(),
        "petroleum" => petroleum_web(seed, &web).d_plus_texts(),
        "pharma" => pharma_web(seed, &web).d_plus_texts(),
        other => {
            return Err(format!(
                "unknown domain {other:?} (camera|music|petroleum|pharma)"
            ))
        }
    };
    let content = texts.join("\n");
    std::fs::write(&out, content).map_err(|e| format!("cannot write {out}: {e}"))?;
    Ok(format!(
        "wrote {} {domain} documents to {out}\n",
        texts.len()
    ))
}
