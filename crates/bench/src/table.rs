//! Minimal fixed-width table printing for the experiment front end.

/// Prints a right-aligned table on stdout: a header row from `cols`
/// (name, width), a separator, then each row's cells at the same widths.
pub fn print(cols: &[(&str, usize)], rows: impl IntoIterator<Item = Vec<String>>) {
    let line = |cells: &mut dyn Iterator<Item = &str>| -> String {
        cols.iter()
            .zip(cells)
            .map(|(&(_, width), cell)| format!("{cell:>width$}  "))
            .collect()
    };
    let header = line(&mut cols.iter().map(|&(name, _)| name));
    println!("{header}");
    println!("{}", "-".repeat(header.len().saturating_sub(2)));
    for row in rows {
        println!("{}", line(&mut row.iter().map(String::as_str)));
    }
}

/// Renders a float with two decimals.
#[must_use]
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}
