#!/usr/bin/env bash
# Every output of a fixed command list equal between two source trees.
#
# Usage: bash .github/scripts/outputs_equal.sh OLD_SRC NEW_SRC
#
# OLD_SRC and NEW_SRC are directories holding the ringsfwm package (a
# checkout's src/); they may be the same directory, which checks that the
# outputs are deterministic.  The script writes its configs and a flattop
# spectrum file into a temporary directory, then runs each command below as
# `python -m ringsfwm` once per tree, with that tree first on PYTHONPATH and
# a working directory of its own.  Every output file, the stdout and the
# exit code must be equal byte for byte (cmp), and so must the stderr once
# each tree's path is replaced by "SRC" (warnings name the entry module's
# file).  Exits 1 naming the first difference, 0 when all are equal; the
# temporary directory is removed on success and kept on failure.
set -eu
if [ $# -ne 2 ]; then
  echo "usage: $0 OLD_SRC NEW_SRC" >&2
  exit 2
fi
trees=("$(cd "$1" && pwd -P)" "$(cd "$2" && pwd -P)")
work=$(mktemp -d)
trap 'status=$?; if [ $status -eq 0 ]; then rm -rf "$work"; else echo "kept $work" >&2; fi' EXIT
cfg="$work/configs"
mkdir "$cfg"

ring="[ring]
n2_m2_per_w = 2.6e-17
vg_m_per_s = 8.57e7
area_um2 = 0.330
radius_um = 143
wavelength_nm = 1550"
cw="[pump]
mode = cw
power_uw = 10
[detector]
coincidence_window_ns = 1"
pulsed="[pump]
mode = pulsed
pulse_energy_pj = 1
bandwidth_factor = 10"
all_pass="geometry = all-pass-identical
gamma_c_over_2pi_mhz = 71.1"
distinct="geometry = add-drop-distinct
gamma_c_over_2pi_mhz = 71.1"
identical="geometry = add-drop-identical
gamma_c_over_2pi_mhz = 71.1"
axes_1d="axis1 = gamma_a
axis1_min = 0.1
axis1_max = 5
axis1_points = 9"
axes_distinct="axis1 = tgamma_a
axis1_min = 0.1
axis1_max = 5
axis1_points = 7
axis2 = gamma_b
axis2_min = 0.2
axis2_max = 4
axis2_points = 5
axis2_scale = linear"
axes_identical="${axes_distinct/tgamma_a/gamma_a}"

# config NAME TEXT: write $cfg/NAME.ini
config() { printf '%s\n' "$2" > "$cfg/$1.ini"; }
config cw_car "$ring
[coupling]
$all_pass
gamma_a_over_gamma_c = 1.2
$cw"
config pulsed_distinct "$ring
[coupling]
$distinct
tgamma_a_over_gamma_c = 1.37
gamma_b_over_gamma_c = 1.83
tgamma_c_over_2pi_mhz = 80
$pulsed"
config delta_omega "$ring
[coupling]
$identical
gamma_a_over_gamma_c = 1.0
gamma_b_over_gamma_c = 0.5
[pump]
mode = pulsed
pulse_energy_pj = 1
delta_omega_over_2pi_ghz = 3"
# flattop of width 2*pi*1.422 GHz, ten pump linewidths of the all-pass design
awk 'BEGIN { w = 8.93470720604e9
             for (k = 0; k <= 10; k++) printf "%.17g %.17g 0\n", -w / 2 + k * w / 10, 1 / sqrt(w) }' \
  > "$cfg/flattop.txt"
config spectrum "$ring
[coupling]
$all_pass
gamma_a_over_gamma_c = 1.0
[pump]
mode = pulsed
pulse_energy_pj = 1
spectrum_file = flattop.txt"
config optimize_cw "$ring
[coupling]
gamma_c_over_2pi_mhz = 71.1
[pump]
mode = cw
power_uw = 10"
config optimize_pulsed "$ring
[coupling]
gamma_c_over_2pi_mhz = 71.1
$pulsed"
config schmidt "[coupling]
$distinct
tgamma_a_over_gamma_c = 0.4
gamma_b_over_gamma_c = 2.5
$pulsed"
config sweep_Rs "$ring
[coupling]
$distinct
tgamma_c_over_2pi_mhz = 90
$cw
[sweep]
$axes_distinct
outputs = Rs"
config sweep_Rsi "$ring
[coupling]
$identical
$cw
[sweep]
$axes_identical
outputs = Rsi"
config sweep_CAR "$ring
[coupling]
$all_pass
$cw
[sweep]
$axes_1d
outputs = CAR"
config sweep_ps "$ring
[coupling]
$distinct
$pulsed
[sweep]
$axes_distinct
outputs = ps"
config sweep_psi "$ring
[coupling]
$identical
$pulsed
[sweep]
$axes_identical
outputs = psi"
config sweep_K "$ring
[coupling]
$all_pass
$pulsed
[sweep]
$axes_1d
outputs = K"

# One command per line: a label, then the arguments of `python -m ringsfwm`,
# where @NAME stands for $cfg/NAME.ini.  The last ten are the lines the
# command-line front end hands to argparse rather than read from its flag
# table: help, version, errors, an abbreviation, an attached value and a
# repeated flag.
commands="figure2-refine figure2 --refine
figure2-csv figure2 --format csv
figure3 figure3
figure3-csv figure3 --format csv
figure3-refine figure3 --refine
rates-cw-car rates --config @cw_car
rates-pulsed-distinct rates --config @pulsed_distinct
rates-delta-omega rates --config @delta_omega
rates-spectrum-file rates --config @spectrum
optimize-cw optimize --config @optimize_cw
optimize-cw-json optimize --config @optimize_cw --format json
optimize-pulsed optimize --config @optimize_pulsed
optimize-pulsed-json optimize --config @optimize_pulsed --format json
schmidt schmidt --config @schmidt
validate validate
sweep-Rs sweep --config @sweep_Rs
sweep-Rsi sweep --config @sweep_Rsi
sweep-CAR sweep --config @sweep_CAR --format csv
sweep-ps sweep --config @sweep_ps
sweep-psi sweep --config @sweep_psi --refine
sweep-K sweep --config @sweep_K
version --version
validate-help validate -h
figure2-help figure2 -h
rates-without-config rates
validate-unknown-flag validate --bogus
figure2-grid-not-int figure2 --grid x
figure2-format-not-a-choice figure2 --format xml
figure2-abbreviated-flag figure2 --ref --grid 9
figure3-attached-value figure3 --grid=9
validate-repeated-out validate --out first.txt --out second.txt"

while read -r label args; do
  argv=()
  for arg in $args; do
    case $arg in
      @*) argv+=("$cfg/${arg#@}.ini") ;;
      *) argv+=("$arg") ;;
    esac
  done
  for side in 0 1; do
    out="$work/$side/$label"
    mkdir -p "$out/files"
    code=0
    (cd "$out/files" && PYTHONDONTWRITEBYTECODE=1 PYTHONPATH="${trees[$side]}" \
      python -m ringsfwm "${argv[@]}" < /dev/null > "$out/stdout" 2> "$out/stderr.raw") \
      || code=$?
    echo "$code" > "$out/exit_code"
    sed "s|${trees[$side]}|SRC|g" "$out/stderr.raw" > "$out/stderr"
    rm "$out/stderr.raw"
  done
  old="$work/0/$label" new="$work/1/$label"
  if [ "$(cd "$old" && find . -type f | sort)" != "$(cd "$new" && find . -type f | sort)" ]; then
    echo "outputs_equal: $label: the two trees wrote different files" >&2
    exit 1
  fi
  while read -r file; do
    if ! cmp "$old/$file" "$new/$file" >&2; then
      echo "outputs_equal: $label: $file differs" >&2
      exit 1
    fi
  done < <(cd "$old" && find . -type f | sort)
  echo "$label: equal ($(cd "$old/files" && find . -type f | wc -l) files, exit $(cat "$old/exit_code"))"
done <<< "$commands"
echo "outputs_equal: every output equal"
