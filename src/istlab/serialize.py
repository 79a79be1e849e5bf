"""JSON codecs shared by the CLI and the file interfaces.

Complex scalars are two-element arrays [re, im] everywhere; matrices are
nested row-major lists of those pairs.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import numpy as np

from .ist import FiniteAlgebra, IndefiniteTriple
from .kspace import AntilinearOperator, KreinForm
from .sm import YukawaSet, ZParams

_YUKAWA_KEYS = ("Ynu", "Ye", "Yu", "Yd", "YR")  # file keys of the YukawaSet fields, in order


def encode_matrix(M) -> list:
    M = np.asarray(M, dtype=complex)
    return np.stack([M.real, M.imag], axis=-1).tolist()


def decode_matrix(obj) -> np.ndarray:
    arr = np.asarray(obj, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError("matrix entries must be [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def clifford_to_dict(module) -> dict:
    return {
        "signature": [module.sig.q, module.sig.p],
        "dim": module.dim,
        "gammas": [encode_matrix(g) for g in module.gammas],
        "chi": encode_matrix(module.chi),
        "eta_plus": encode_matrix(module.eta_plus),
        "eta_minus": encode_matrix(module.eta_minus),
        "gram_robinson": encode_matrix(module.gram_robinson.gram),
        "gram_antirobinson": encode_matrix(module.gram_antirobinson.gram),
        "jplus": encode_matrix(module.jplus.mat),
        "jminus": encode_matrix(module.jminus.mat),
    }


def triple_to_dict(triple: IndefiniteTriple) -> dict:
    return {
        "gram": encode_matrix(triple.form.gram),
        "chi": encode_matrix(triple.chi),
        "J": encode_matrix(triple.cc.mat),
        "dirac": encode_matrix(triple.dirac),
        "algebra_basis": [encode_matrix(b) for b in triple.algebra.basis],
        "involution": [encode_matrix(b) for b in triple.algebra.involution],
        "sigma": triple.sigma,
    }


def triple_from_dict(data: dict) -> IndefiniteTriple:
    if not isinstance(data, dict):
        raise ValueError(f"triple file must hold a JSON object, got {type(data).__name__}")
    try:
        basis = [decode_matrix(b) for b in data["algebra_basis"]]
        involution = [decode_matrix(b) for b in data["involution"]]
        return IndefiniteTriple(
            form=KreinForm(decode_matrix(data["gram"])),
            chi=decode_matrix(data["chi"]),
            cc=AntilinearOperator(decode_matrix(data["J"])),
            dirac=decode_matrix(data["dirac"]),
            algebra=FiniteAlgebra(basis, involution),
            sigma=int(data.get("sigma", 0)),
        )
    except KeyError as exc:
        raise ValueError(f"triple file is missing field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"triple file has a wrongly typed field: {exc}") from exc


def load_triple(path: str) -> IndefiniteTriple:
    with open(path) as fh:
        return triple_from_dict(json.load(fh))


def sm_input_from_dict(data: dict):
    """Parse {"N", "s", "epsF", "yukawas": {...}, "z": {...}} into model inputs."""
    if not isinstance(data, dict):
        raise ValueError(f"model file must hold a JSON object, got {type(data).__name__}")
    try:
        n = int(data["N"])
        s = int(data["s"])
        eps_f = int(data["epsF"])
        y = YukawaSet(*(decode_matrix(data["yukawas"][key]) for key in _YUKAWA_KEYS))
    except KeyError as exc:
        raise ValueError(f"model file is missing field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"model file has a wrongly typed field: {exc}") from exc
    if y.n_gen != n:
        raise ValueError("declared N does not match the Yukawa size")
    z = None
    if "z" in data:
        try:
            # JSON numbers only: float() would take true as 1.0 and "1.5" as 1.5
            for key, v in data["z"].items():
                number = isinstance(v, (int, float)) and not isinstance(v, bool)
                if not (number and abs(v) <= sys.float_info.max):
                    raise ValueError(
                        f"model file has bad z parameters: {key} = {v!r} is not a finite number")
            z = ZParams(**{k: float(v) for k, v in data["z"].items()})
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"model file has bad z parameters: {exc}") from exc
    return y, s, eps_f, z


def load_sm_input(path: str):
    with open(path) as fh:
        return sm_input_from_dict(json.load(fh))


def dump_sm_input(path: str, y: YukawaSet, s: int, eps_f: int, z: ZParams = None):
    data = {
        "N": y.n_gen,
        "s": s,
        "epsF": eps_f,
        "yukawas": {
            key: encode_matrix(getattr(y, f.name))
            for key, f in zip(_YUKAWA_KEYS, dataclasses.fields(YukawaSet))
        },
    }
    if z is not None:
        data["z"] = dataclasses.asdict(z)
    with open(path, "w") as fh:
        json.dump(data, fh)
