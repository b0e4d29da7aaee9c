"""Market scheduling for heterogeneous renewable virtual power plants.

Day-ahead commitment plus sequential intraday re-optimization of a
portfolio of dispatchable and non-dispatchable renewables, solar thermal
units with storage, and flexible demands, connected to the main grid
through one or more coupling points.
"""

__version__ = "0.1.0"
