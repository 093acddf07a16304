#!/bin/sh
# Checks that the phase copies `lightmamba_tensor::isa::Isa::compiled`
# makes run at their tier's width. A copy whose body was not inlined
# into it computes the same bits at baseline speed, which the bit-exact
# copy tests cannot see; here the release rlibs of the two crates whose
# phases are copied (`lightmamba_quant`, `lightmamba_model`) are
# disassembled, and every instance of the AVX-512 copy must hold zmm
# instructions and every instance of the AVX2 copy ymm ones.
#
#   scripts/phase-copies.sh      # builds in release first; needs objdump and jq
#
# Prints one line per instance (crate, copy, zmm and ymm instruction
# counts) and exits non-zero when an instance runs narrow or a crate has
# no instance of either copy.
set -eu
cd "$(dirname "$0")/.."

rlibs=$(cargo build --release --message-format=json |
  jq -r 'select(.reason == "compiler-artifact")
    | select(.target.name == "lightmamba_quant" or .target.name == "lightmamba_model")
    | .filenames[] | select(endswith(".rlib"))')

status=0
for rlib in $rlibs; do
  crate=$(basename "$rlib" .rlib | sed 's/^lib//; s/-.*//')
  objdump -d -C --no-show-raw-insn "$rlib" | awk -v crate="$crate" '
    function flush() {
      if (copy == "") return
      n[copy]++
      printf "%s %s #%d: %d zmm, %d ymm\n", crate, copy, n[copy], zmm, ymm
      if ((copy == "avx512" && zmm == 0) || (copy == "avx2" && ymm == 0)) bad++
    }
    /^[0-9a-f]+ <.*>:$/ {
      flush()
      copy = ""
      if ($0 ~ /<lightmamba_tensor::isa::compiled_avx512/) copy = "avx512"
      else if ($0 ~ /<lightmamba_tensor::isa::compiled_avx2/) copy = "avx2"
      zmm = ymm = 0
      next
    }
    /%zmm/ { zmm++ }
    /%ymm/ { ymm++ }
    END {
      flush()
      if (!n["avx512"] || !n["avx2"]) { print crate ": a copy has no instance"; bad++ }
      if (bad) { print crate ": " bad " phase cop(ies) not at their width"; exit 1 }
    }' || status=1
done
exit "$status"
