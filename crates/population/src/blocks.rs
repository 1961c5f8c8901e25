//! Synthetic census blocks and population density.

use riskroute_geo::bbox::CONUS;
use riskroute_geo::distance::destination;
use riskroute_geo::{GeoGrid, GeoPoint};
use riskroute_rng::StdRng;
use riskroute_topology::gazetteer::{self, City};

/// Number of continental-US census blocks in the paper's extract (§4.2).
pub const PAPER_BLOCK_COUNT: usize = 215_932;

/// One synthetic census block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CensusBlock {
    /// Block centroid.
    pub location: GeoPoint,
    /// Population of the block.
    pub population: f64,
    /// USPS state code inherited from the anchor city (used for the paper's
    /// rule that regional-network impact only counts in-footprint states).
    pub state: &'static str,
}

/// A synthetic population surface: a set of census blocks over CONUS.
#[derive(Debug, Clone)]
pub struct PopulationModel {
    blocks: Vec<CensusBlock>,
    total: f64,
}

impl PopulationModel {
    /// Synthesize `n_blocks` census blocks, deterministic under `seed`.
    ///
    /// Blocks are apportioned to gazetteer cities proportionally to city
    /// population (every city gets at least one block), and scattered around
    /// the city center with an exponential-tail radial profile (median
    /// ~4 miles, occasional exurban blocks out to ~40 miles), clamped to
    /// CONUS.
    ///
    /// # Panics
    /// Panics when `n_blocks` is smaller than the gazetteer size.
    pub fn synthesize(seed: u64, n_blocks: usize) -> Self {
        let _span = riskroute_obs::span!("population_synthesize", blocks = n_blocks);
        let cities = gazetteer::CITIES;
        assert!(
            n_blocks >= cities.len(),
            "need at least one block per gazetteer city ({})",
            cities.len()
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let total_city_pop = gazetteer::total_population() as f64;

        // Largest-remainder apportionment of blocks to cities.
        let mut counts: Vec<usize> = Vec::with_capacity(cities.len());
        let mut remainders: Vec<(f64, usize)> = Vec::with_capacity(cities.len());
        let mut assigned = 0usize;
        for (i, c) in cities.iter().enumerate() {
            let ideal = n_blocks as f64 * f64::from(c.population) / total_city_pop;
            let floor = (ideal.floor() as usize).max(1);
            counts.push(floor);
            assigned += floor;
            remainders.push((ideal - ideal.floor(), i));
        }
        remainders.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut extra_iter = remainders.iter().cycle();
        while assigned < n_blocks {
            // A cycle over the non-empty gazetteer never runs dry.
            let Some(&(_, i)) = extra_iter.next() else {
                unreachable!("cycle over non-empty remainders never ends");
            };
            counts[i] += 1;
            assigned += 1;
        }
        while assigned > n_blocks {
            // Over-assignment can only come from the `max(1)` floor on tiny
            // cities; shave blocks from the largest allocations.
            let Some(i) = counts
                .iter()
                .enumerate()
                .max_by_key(|&(_, &c)| c)
                .map(|(i, _)| i)
            else {
                break;
            };
            counts[i] -= 1;
            assigned -= 1;
        }

        let mut blocks = Vec::with_capacity(n_blocks);
        for (city, &count) in cities.iter().zip(&counts) {
            let per_block_pop = f64::from(city.population) / count as f64;
            for _ in 0..count {
                blocks.push(CensusBlock {
                    location: scatter(city, &mut rng),
                    population: per_block_pop,
                    state: city.state,
                });
            }
        }
        let total = blocks.iter().map(|b| b.population).sum();
        PopulationModel { blocks, total }
    }

    /// The blocks.
    pub fn blocks(&self) -> &[CensusBlock] {
        &self.blocks
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Total population over all blocks.
    pub fn total_population(&self) -> f64 {
        self.total
    }

    /// Rasterize population onto a `rows × cols` CONUS grid (Figure 3-left).
    pub fn density_grid(&self, rows: usize, cols: usize) -> GeoGrid {
        let Ok(mut grid) = GeoGrid::new(CONUS, rows, cols) else {
            // Only rows == 0 or cols == 0 can fail; keep the historical
            // panic contract for that misuse.
            panic!("density grid needs positive rows and cols");
        };
        for b in &self.blocks {
            if let Some((r, c)) = grid.cell_of(b.location) {
                grid.add(r, c, b.population);
            }
        }
        grid
    }
}

/// Scatter a block around its city with exponential radial decay.
fn scatter(city: &City, rng: &mut StdRng) -> GeoPoint {
    // Larger cities sprawl farther: scale radius with sqrt of population.
    let scale = 2.0 + (f64::from(city.population)).sqrt() / 250.0;
    loop {
        let u: f64 = rng.gen_range(1e-9..1.0);
        let radius = (-u.ln() * scale).min(45.0);
        let bearing = rng.gen_range(0.0..360.0);
        let p = destination(city.location(), bearing, radius);
        if CONUS.contains(p) {
            return p;
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn block_count_is_exact() {
        for n in [700, 1000, 5000] {
            let m = PopulationModel::synthesize(1, n);
            assert_eq!(m.block_count(), n);
        }
    }

    #[test]
    fn total_population_matches_gazetteer() {
        let m = PopulationModel::synthesize(1, 2000);
        let expect = gazetteer::total_population() as f64;
        assert!(
            (m.total_population() - expect).abs() / expect < 1e-9,
            "synthesis conserves population"
        );
    }

    #[test]
    fn synthesis_is_deterministic() {
        let a = PopulationModel::synthesize(5, 1500);
        let b = PopulationModel::synthesize(5, 1500);
        assert_eq!(a.blocks(), b.blocks());
        let c = PopulationModel::synthesize(6, 1500);
        assert_ne!(a.blocks(), c.blocks());
    }

    #[test]
    fn blocks_stay_in_conus() {
        let m = PopulationModel::synthesize(2, 3000);
        for b in m.blocks() {
            assert!(CONUS.contains(b.location));
        }
    }

    #[test]
    fn nyc_region_outweighs_montana() {
        let m = PopulationModel::synthesize(3, 8000);
        let near = |lat: f64, lon: f64, radius: f64| -> f64 {
            let center = GeoPoint::new(lat, lon).unwrap();
            m.blocks()
                .iter()
                .filter(|b| {
                    riskroute_geo::distance::great_circle_miles(b.location, center) < radius
                })
                .map(|b| b.population)
                .sum()
        };
        let nyc = near(40.71, -74.01, 60.0);
        let rural_montana = near(47.0, -109.0, 60.0);
        assert!(
            nyc > 50.0 * rural_montana.max(1.0),
            "nyc={nyc} mt={rural_montana}"
        );
    }

    #[test]
    fn density_grid_conserves_population() {
        let m = PopulationModel::synthesize(4, 2000);
        let grid = m.density_grid(40, 80);
        assert!((grid.total() - m.total_population()).abs() < 1.0);
    }

    #[test]
    fn density_grid_peak_is_a_major_metro() {
        let m = PopulationModel::synthesize(4, 20_000);
        let grid = m.density_grid(25, 50);
        let (row, col, _) = grid.argmax().unwrap();
        let peak = grid.cell_center(row, col);
        // Peak must be near one of the three biggest metros.
        let mets = [(40.71, -74.01), (34.05, -118.24), (41.88, -87.63)];
        let close = mets.iter().any(|&(lat, lon)| {
            let c = GeoPoint::new(lat, lon).unwrap();
            riskroute_geo::distance::great_circle_miles(peak, c) < 200.0
        });
        assert!(close, "density peak at {peak} is not a major metro");
    }

    #[test]
    fn blocks_carry_state_tags() {
        let m = PopulationModel::synthesize(1, 700);
        assert!(m.blocks().iter().any(|b| b.state == "TX"));
        assert!(m.blocks().iter().any(|b| b.state == "NY"));
    }

    #[test]
    #[should_panic(expected = "one block per gazetteer city")]
    fn too_few_blocks_panics() {
        let _ = PopulationModel::synthesize(1, 10);
    }
}
