//! Shared helper of the two binaries in `src/bin/`: `repro` (the paper's
//! tables and figures from `lightmamba::experiments`, checked —
//! README.md §"Reproducing the paper" is the index) and `serve_traffic`
//! (the serving studies).

/// Prints the standard experiment banner.
pub fn banner(id: &str, title: &str, substitution_note: &str) {
    println!("==========================================================================");
    println!("LightMamba reproduction — {id}: {title}");
    if !substitution_note.is_empty() {
        println!("note: {substitution_note}");
    }
    println!("==========================================================================");
}
