//! The figure driver's command line: an unknown figure or part is an error
//! that exits 2 before any simulation runs, and the usage line names every
//! figure.

use std::process::{Command, Output};

fn utps_fig(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_utps-fig"))
        .args(args)
        .output()
        .expect("utps-fig did not start")
}

#[test]
fn utps_fig_rejects_unknown_names_and_parts() {
    let bad: [&[&str]; 5] = [
        &[],
        &["fig99"],
        &["fig13", "--part", "bogus"],
        &["fig7", "--part", "a"],
        &["stats", "--bogus"],
    ];
    for args in bad {
        let out = utps_fig(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran a figure: {out:?}");
        assert!(out.stderr.starts_with(b"utps-fig: "), "{args:?}: {out:?}");
    }
    let usage = String::from_utf8(utps_fig(&[]).stderr).unwrap();
    assert!(
        usage
            .contains("utps-fig <fig2|fig7|fig8|fig9|fig10|fig11|fig12|fig13|fig14|ablate|stats> "),
        "{usage}"
    );
}
