//! Molecular topology: atoms, bonded terms and nonbonded exclusions.

use crate::forcefield::{AngleParam, AtomClass, BondParam, DihedralParam, ImproperParam};
use serde::{Deserialize, Serialize};

/// One atom of the system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Atom {
    /// Lennard-Jones / mass class.
    pub class: AtomClass,
    /// Partial charge in elementary charges.
    pub charge: f64,
}

/// A harmonic bond between atoms `i` and `j`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Bond {
    /// First atom index.
    pub i: usize,
    /// Second atom index.
    pub j: usize,
    /// Parameters.
    pub param: BondParam,
}

/// A harmonic angle `i-j-k` centered on `j`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Angle {
    /// End atom.
    pub i: usize,
    /// Apex atom.
    pub j: usize,
    /// End atom.
    pub k: usize,
    /// Parameters.
    pub param: AngleParam,
}

/// A proper dihedral `i-j-k-l` around the `j-k` axis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Dihedral {
    /// First atom.
    pub i: usize,
    /// Second atom (axis).
    pub j: usize,
    /// Third atom (axis).
    pub k: usize,
    /// Fourth atom.
    pub l: usize,
    /// Parameters.
    pub param: DihedralParam,
}

/// A harmonic improper `i-j-k-l` (CHARMM convention: the angle between
/// the `ijk` and `jkl` planes is restrained).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Improper {
    /// Central atom first (CHARMM convention).
    pub i: usize,
    /// Second atom.
    pub j: usize,
    /// Third atom.
    pub k: usize,
    /// Fourth atom.
    pub l: usize,
    /// Parameters.
    pub param: ImproperParam,
}

/// Complete bonded topology plus exclusion lists.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    /// All atoms.
    pub atoms: Vec<Atom>,
    /// Harmonic bonds.
    pub bonds: Vec<Bond>,
    /// Harmonic angles.
    pub angles: Vec<Angle>,
    /// Proper dihedrals.
    pub dihedrals: Vec<Dihedral>,
    /// Harmonic impropers.
    pub impropers: Vec<Improper>,
    /// Sorted per-atom exclusion lists (1-2 and 1-3 neighbours). Only
    /// partners with a larger index are stored for atom `i`.
    pub exclusions: Vec<Vec<u32>>,
}

impl Topology {
    /// Number of atoms.
    pub fn n_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Total charge of the system in elementary charges.
    pub fn total_charge(&self) -> f64 {
        self.atoms.iter().map(|a| a.charge).sum()
    }

    /// Total mass in amu.
    pub fn total_mass(&self) -> f64 {
        self.atoms.iter().map(|a| a.class.mass()).sum()
    }

    /// Rebuilds the exclusion lists from the bond graph: directly bonded
    /// pairs (1-2) and pairs separated by two bonds (1-3) are excluded
    /// from the nonbonded interaction, as in CHARMM's default `NBXMod 5`
    /// minus the special 1-4 treatment (1-4 pairs interact fully here).
    pub fn rebuild_exclusions(&mut self) {
        let n = self.atoms.len();
        let mut adjacency: Vec<Vec<u32>> = vec![Vec::new(); n];
        for b in &self.bonds {
            assert!(
                b.i < n && b.j < n && b.i != b.j,
                "bond indices out of range"
            );
            adjacency[b.i].push(b.j as u32);
            adjacency[b.j].push(b.i as u32);
        }
        let mut excl: Vec<Vec<u32>> = vec![Vec::new(); n];
        for i in 0..n {
            // 1-2 neighbours.
            for &j in &adjacency[i] {
                if (j as usize) > i {
                    excl[i].push(j);
                }
            }
            // 1-3 neighbours.
            for &j in &adjacency[i] {
                for &k in &adjacency[j as usize] {
                    let k = k as usize;
                    if k > i && k != i {
                        excl[i].push(k as u32);
                    }
                }
            }
            excl[i].sort_unstable();
            excl[i].dedup();
        }
        self.exclusions = excl;
    }

    /// True if the unordered pair `(i, j)` is excluded. Requires
    /// `rebuild_exclusions` to have run.
    #[inline]
    pub fn is_excluded(&self, i: usize, j: usize) -> bool {
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        self.exclusions[lo].binary_search(&(hi as u32)).is_ok()
    }

    /// Iterates over all excluded pairs `(i, j)` with `i < j`.
    pub fn excluded_pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.exclusions
            .iter()
            .enumerate()
            .flat_map(|(i, list)| list.iter().map(move |&j| (i, j as usize)))
    }

    /// Sanity-checks index ranges of every bonded term.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.atoms.len();
        for (t, b) in self.bonds.iter().enumerate() {
            if b.i >= n || b.j >= n || b.i == b.j {
                return Err(format!("bond {t} has invalid indices ({}, {})", b.i, b.j));
            }
        }
        for (t, a) in self.angles.iter().enumerate() {
            if a.i >= n || a.j >= n || a.k >= n || a.i == a.k || a.i == a.j || a.j == a.k {
                return Err(format!("angle {t} has invalid indices"));
            }
        }
        for (t, d) in self.dihedrals.iter().enumerate() {
            if d.i >= n || d.j >= n || d.k >= n || d.l >= n {
                return Err(format!("dihedral {t} has out-of-range indices"));
            }
        }
        for (t, d) in self.impropers.iter().enumerate() {
            if d.i >= n || d.j >= n || d.k >= n || d.l >= n {
                return Err(format!("improper {t} has out-of-range indices"));
            }
        }
        if self.exclusions.len() != n {
            return Err("exclusion lists not built".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forcefield::params;

    fn chain(n: usize) -> Topology {
        // Linear chain 0-1-2-...-(n-1).
        let mut topo = Topology {
            atoms: vec![
                Atom {
                    class: AtomClass::CT,
                    charge: 0.0
                };
                n
            ],
            ..Default::default()
        };
        for i in 0..n - 1 {
            topo.bonds.push(Bond {
                i,
                j: i + 1,
                param: params::BOND_HEAVY,
            });
        }
        topo.rebuild_exclusions();
        topo
    }

    #[test]
    fn exclusions_of_linear_chain() {
        let topo = chain(6);
        // 1-2 and 1-3 are excluded; 1-4 is not.
        assert!(topo.is_excluded(0, 1));
        assert!(topo.is_excluded(0, 2));
        assert!(!topo.is_excluded(0, 3));
        assert!(topo.is_excluded(2, 4));
        assert!(!topo.is_excluded(1, 5));
    }

    #[test]
    fn exclusion_is_symmetric() {
        let topo = chain(5);
        for i in 0..5 {
            for j in 0..5 {
                if i != j {
                    assert_eq!(topo.is_excluded(i, j), topo.is_excluded(j, i));
                }
            }
        }
    }

    #[test]
    fn excluded_pairs_enumeration_matches_query() {
        let topo = chain(7);
        let pairs: Vec<_> = topo.excluded_pairs().collect();
        for &(i, j) in &pairs {
            assert!(i < j);
            assert!(topo.is_excluded(i, j));
        }
        // Chain of 7: 6 bonds + 5 one-three pairs.
        assert_eq!(pairs.len(), 11);
    }

    #[test]
    fn validate_catches_bad_bond() {
        let mut topo = chain(3);
        topo.bonds.push(Bond {
            i: 0,
            j: 99,
            param: params::BOND_HEAVY,
        });
        assert!(topo.validate().is_err());
    }

    #[test]
    fn totals() {
        let mut topo = chain(4);
        topo.atoms[0].charge = 0.5;
        topo.atoms[3].charge = -0.25;
        assert!((topo.total_charge() - 0.25).abs() < 1e-12);
        assert!((topo.total_mass() - 4.0 * 12.011).abs() < 1e-9);
    }
}
